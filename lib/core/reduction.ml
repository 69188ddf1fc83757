(* The GC model's instantiation of lib/reduce: which processes are
   symmetric, which registers are dead where, and which transitions the
   ample-set selector may defer.

   Everything here is justified against the model source and the
   invariant catalogue; DESIGN.md ("State-space reduction") records the
   argument.  Two global preconditions:

   - Normal-form exploration (the checkers' default).  The liveness
     rules below null registers that are only read by definite-tau
     steps (If/While tests, assigns), which never rest in normal form;
     at non-normal-form rest points those registers are live and the
     rules would be unsound.

   - Invariants quantify over mutators symmetrically (every invariant
     in Invariants.all does), and read, of all the local registers,
     only m_loaded (under bar-del control), g_ref (at gc:free and its
     sweep window) and g_fM — which is why those three appear in keep
     conditions below and the rest can be nulled when control cannot
     read them again before an overwrite. *)

open Types
open State

(* The head (current) label of process [p], read off its top frame. *)
let head_of sys p =
  match (Cimp.System.proc sys p).Cimp.Com.stack with [] -> "" | c :: _ -> Cimp.Com.head_label c

(* -- register liveness ------------------------------------------------------

   [canon_mut]/[canon_gc] null dead registers, returning the argument
   physically unchanged when no rule fires (Symmetry counts a state as
   "nulled" via [!=]).  [stack] is the process's frame stack, [h] its
   head (current) label. *)

let canon_mut stack h (d : mut_data) =
  (* At the top of the op loop (a single frame whose head is hs-read:
     the Choose over ops, whose first branch is the handshake) every
     op-scratch register is dead: each op writes its own scratch before
     reading it.  m_roots, m_ops and m_rooted genuinely carry across ops
     and stay. *)
  let d =
    if
      (match stack with [ _ ] -> h = "mut:hs-read" | _ -> false)
      && (d.m_src <> None || d.m_dst <> None || d.m_fld <> 0 || d.m_fA || d.m_hs_pending
         || d.m_hs_type <> Hs_get_work || d.m_todo <> [])
    then
      {
        d with
        m_src = None;
        m_dst = None;
        m_fld = 0;
        m_fA = false;
        m_hs_pending = false;
        m_hs_type = Hs_get_work;
        m_todo = [];
      }
    else d
  in
  (* m_loaded: read by the deletion barrier's mark code and by the
     extended-roots invariant, both only under bar-del (or the
     del-target assign, kept for non-normal-form belt and braces). *)
  let d =
    if
      d.m_loaded <> None
      && not (String.starts_with ~prefix:"mut:bar-del" h || h = "mut:del-target")
    then { d with m_loaded = None }
    else d
  in
  (* mark registers: live only inside an inlined mark expansion *)
  if
    d.m_mark <> mark_regs0
    && not
         (String.starts_with ~prefix:"mut:bar-del" h
         || String.starts_with ~prefix:"mut:bar-ins" h
         || String.starts_with ~prefix:"mut:root-mark" h)
  then { d with m_mark = mark_regs0 }
  else d

let canon_gc h (g : gc_data) =
  let g =
    if g.g_mark <> mark_regs0 && not (String.starts_with ~prefix:"gc:mark:" h) then
      { g with g_mark = mark_regs0 }
    else g
  in
  (* g_ref: read by the sweep's flag load and free request closures and
     by free_only_garbage (which only fires at gc:free) *)
  let g =
    if g.g_ref <> None && not (h = "gc:sweep-load-flag" || h = "gc:free") then
      { g with g_ref = None }
    else g
  in
  (* g_flag / g_any_pending: consumed by If/While tests, which are
     definite taus — never live at a normal-form rest point *)
  let g = if g.g_flag then { g with g_flag = false } else g in
  let g = if g.g_any_pending then { g with g_any_pending = false } else g in
  (* g_hs_m: live only at the signal request inside the signal loop *)
  if g.g_hs_m <> 0 && not (String.ends_with ~suffix:":signal" h) then { g with g_hs_m = 0 }
  else g

(* -- component hashes of the Sys data ----------------------------------------

   The Sys data splits into the slices indexed by a mutator — its store
   buffer, work-list and ghg (software pid = process pid), its handshake
   bits (mutator index m = pid - 1), and whether it holds the lock — and
   the rest: memory, handshake type, the dangling flag, the collector's
   slices, and the lock reduced to none / collector / some mutator.
   [mut_slices] hashes one mutator's slices, [sys_rest] the rest; the two
   cover every field exactly once between them. *)

let mix = Check.Fingerprint.mix
let mix_data = Check.Fingerprint.mix_data

let mut_slices sd pid =
  let m = pid - 1 in
  let h = mix_data Check.Fingerprint.seed (buf_of sd pid) in
  let h = mix_data h (wl_of sd pid) in
  let h = mix_data h (ghg_of sd pid) in
  let h = mix_data h (hs_bit sd m) in
  let h = mix_data h (hs_done sd m) in
  let h = mix_data h (List.nth sd.s_hs_mut_hs m) in
  mix h (match sd.s_lock with Some p when p = pid -> 1 | Some _ | None -> 0)

(* The record pattern names every field, so a new Sys field fails to
   compile here until it is assigned to one side of the split. *)
let sys_rest
    ({
       s_mem;
       s_hs_type;
       s_dangling;
       s_lock;
       s_bufs = _;
       s_W = _;
       s_ghg = _;
       s_hs_pending = _;
       s_hs_done = _;
       s_hs_mut_hs = _;
     } as sd) =
  let gc = Config.pid_gc in
  let h = mix_data Check.Fingerprint.seed s_mem in
  let h = mix_data h s_hs_type in
  let h = mix_data h s_dangling in
  let h = mix_data h (buf_of sd gc) in
  let h = mix_data h (wl_of sd gc) in
  let h = mix_data h (ghg_of sd gc) in
  mix h (match s_lock with None -> 0 | Some p when p = gc -> 1 | Some _ -> 2)

(* -- the symmetry spec ------------------------------------------------------ *)

let spec cfg : (Types.msg, Types.value, State.t) Reduce.Symmetry.spec =
  {
    Reduce.Symmetry.sym_pids = List.init cfg.Config.n_muts (Config.pid_mut cfg);
    canon_local =
      (fun sys ~pid d ->
        match d with
        | L_gc g ->
          let g' = canon_gc (head_of sys pid) g in
          if g' == g then d else L_gc g'
        | L_mut m ->
          let m' = canon_mut (Cimp.System.proc sys pid).Cimp.Com.stack (head_of sys pid) m in
          if m' == m then d else L_mut m'
        | L_sys _ -> d);
    sym_hash =
      (fun sys ~pid ~canon ->
        mix (Check.Fingerprint.data canon) (mut_slices (Model.sys_data sys cfg) pid));
    fixed_hash =
      (fun _ ~pid:_ ~canon ->
        match canon with
        | L_sys sd -> sys_rest sd
        | L_gc _ | L_mut _ -> Check.Fingerprint.data canon);
    permute_ok =
      (* the handshake signal loop addresses mutators by index in a
         fixed order: inside it (exactly the <tag>:signal rest points)
         the permutation is not an automorphism, so skip it there *)
      (fun sys -> not (String.ends_with ~suffix:":signal" (head_of sys Config.pid_gc)));
  }

(* -- the POR policy ---------------------------------------------------------

   Deferrable transitions are exactly the mfence rendezvous: every
   "...fence" request label in the model is a Req_mfence, which Sysproc
   answers only when the requester's buffer is empty, changing no Sys
   state — so when one is enabled it is its owner's whole enabled set,
   commutes exactly with every other process's transitions, and (with
   its requester-local normalization cascade) is invisible to the
   invariant catalogue. *)

let por_policy =
  {
    Reduce.Por.deferrable =
      (function
      | Cimp.System.Rendezvous { req_label; _ } -> String.ends_with ~suffix:"fence" req_label
      | Cimp.System.Tau _ -> false);
  }

(* -- reducer assembly ------------------------------------------------------- *)

let reducer cfg (mode : Reduce.Mode.t) :
    (Types.msg, Types.value, State.t) Check.Reducer.t option =
  match mode with
  | None_ -> None
  | (Sym | Por | All) as mode ->
    let sym_permuted = Atomic.make 0 in
    let reg_nulled = Atomic.make 0 in
    let deferred = Atomic.make 0 in
    let sp = spec cfg in
    let canonical_fingerprint = Reduce.Symmetry.canonical_fingerprint sp in
    let canonical sys =
      let fp, permuted, nulled = canonical_fingerprint sys in
      if permuted then Atomic.incr sym_permuted;
      if nulled then Atomic.incr reg_nulled;
      fp
    in
    let fingerprint =
      match mode with
      | Sym | All -> canonical
      | Por -> Check.Fingerprint.of_system
      | None_ -> assert false
    in
    let successors =
      match mode with
      | Por | All -> Reduce.Por.successors por_policy ~deferred
      | Sym -> Cimp.System.steps
      | None_ -> assert false
    in
    (* the executable representative matches the fingerprint's nulling:
       modes that dedup on the liveness-canonical fingerprint expand the
       nulled state, so the explored graph is the quotient graph and the
       visited class set is scheduling-independent (certificates depend
       on this); plain-fingerprint modes expand states unchanged *)
    let canon_state =
      match mode with
      | Sym | All -> Reduce.Symmetry.canon_state sp
      | Por -> Fun.id
      | None_ -> assert false
    in
    Some
      {
        Check.Reducer.name = Reduce.Mode.to_string mode;
        fingerprint;
        successors;
        canon_state;
        sym_permuted;
        reg_nulled;
        deferred;
      }

(* -- test helper ------------------------------------------------------------

   Concretely permute the mutators of [sys] by [perm_m] (mutator index
   to mutator index): process slots move, and the per-pid slices of the
   Sys data move with them.  The result is *fingerprintable but not
   executable* — commands embed pids inside request closures, which are
   not rewritten.  The symmetry property test checks canonical
   fingerprints are invariant under this; the fingerprint itself never
   renames anything, so the test is an independent check. *)

(* [perm] maps old pid to new pid (identity outside the mutators).  The
   software-pid-indexed lists (buffers, work-lists, ghg) move with it
   directly and the mutator-indexed handshake lists with its restriction
   m -> perm (m+1) - 1. *)
let permute_idx permi l =
  let arr = Array.of_list l in
  let out = Array.copy arr in
  Array.iteri (fun j x -> out.(permi j) <- x) arr;
  Array.to_list out

let rename_sys ~perm sd =
  let perm_m m = perm (m + 1) - 1 in
  {
    sd with
    s_bufs = permute_idx perm sd.s_bufs;
    s_W = permute_idx perm sd.s_W;
    s_ghg = permute_idx perm sd.s_ghg;
    s_hs_pending = permute_idx perm_m sd.s_hs_pending;
    s_hs_done = permute_idx perm_m sd.s_hs_done;
    s_hs_mut_hs = permute_idx perm_m sd.s_hs_mut_hs;
    s_lock = Option.map perm sd.s_lock;
  }

let permute_muts cfg sys perm_m =
  let n = Cimp.System.n_procs sys in
  let nm = cfg.Config.n_muts in
  let perm p = if p >= 1 && p <= nm then 1 + perm_m (p - 1) else p in
  let inv = Array.make n 0 in
  for p = 0 to n - 1 do
    inv.(perm p) <- p
  done;
  let names = Array.init n (Cimp.System.name sys) in
  let procs = Array.init n (fun q -> Cimp.System.proc sys inv.(q)) in
  let sys' = Cimp.System.make names procs in
  Cimp.System.map_data sys' (Config.pid_sys cfg) (map_sys (rename_sys ~perm))
