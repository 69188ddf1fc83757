(* Symmetry + register-liveness canonical fingerprints.

   Identical processes (the mutators of the GC model) are interchangeable:
   permuting them in a global state yields a state with the same future
   behaviour up to the same permutation, and all invariants of interest
   quantify over them symmetrically.  The checker can therefore dedup on
   the orbit of a state under such permutations, collapsing up to n!
   permuted states into one.

   The orbit is fingerprinted without building a permuted state.  Each
   symmetric process contributes one int, its component: the hash of its
   control spine, its canonical data and every slice of shared state
   indexed by it (its store buffer, work-list, handshake bits, ...).
   Every other process contributes its control hash and the hash of its
   data with exactly those slices left out.  The fingerprint mixes the
   fixed processes in index order, then the symmetric ints sorted — a
   permutation of the symmetric pids permutes their ints and leaves
   everything else alone, so the whole orbit gets one value, and two
   states with the same value agree (up to hash collisions) on every
   fixed process and on the multiset of symmetric components, which is
   orbit equality.  Where [permute_ok] rules the permutation out, the
   ints are mixed in index order under a different tag.  DESIGN.md §8
   records the argument.

   Orthogonally, a *liveness* canonicalization nulls local registers that
   are dead at the current control point (their value cannot be read
   before being overwritten, and no invariant reads them there), merging
   states that differ only in dead-register junk.

   Both are fingerprint-level only for the permutation: the checker keeps
   exploring the concrete state it reached (commands embed pids in
   request closures, so a permuted state could not be built as an
   executable system anyway); the nulling additionally has an executable
   form, [canon_state]. *)

type ('a, 'v, 's) spec = {
  sym_pids : Cimp.System.pid list;
      (* the interchangeable processes; everything else keeps its slot *)
  canon_local : ('a, 'v, 's) Cimp.System.t -> pid:Cimp.System.pid -> 's -> 's;
      (* liveness canonicalization of one process's data at this state;
         must return the argument *physically unchanged* when no rule
         fires (change is detected by [!=]) *)
  sym_hash : ('a, 'v, 's) Cimp.System.t -> pid:Cimp.System.pid -> canon:'s -> int;
      (* data part of a symmetric process's component: must cover its
         canonical local data and every per-process slice of shared state
         that belongs to it ([canonical_fingerprint] mixes in the control
         hash) *)
  fixed_hash : ('a, 'v, 's) Cimp.System.t -> pid:Cimp.System.pid -> canon:'s -> int;
      (* data part of any other process's component: must cover its
         canonical data except exactly the slices some [sym_hash] covers *)
  permute_ok : ('a, 'v, 's) Cimp.System.t -> bool;
      (* is the pid permutation an automorphism at this state?  (The GC
         model's handshake signal loop iterates mutators in index order,
         so states inside that window are excluded.) *)
}

(* Executable canonical representative: every process's local data with
   its dead registers nulled, pids untouched.  Unlike the orbit, which
   only exists as a fingerprint, the nulled state is an ordinary
   runnable system, which lets the checkers expand it in place of
   whichever concrete state they happened to reach first.  Physically
   unchanged when no nulling rule fires, and idempotent (nulling rules
   test against the null value, so a second pass fires nothing). *)
let canon_state spec sys =
  let n = Cimp.System.n_procs sys in
  let out = ref sys in
  for p = 0 to n - 1 do
    let d = (Cimp.System.proc sys p).Cimp.Com.data in
    (* spines are control state, unaffected by the data rewrites, so
       reading them from the original [sys] is sound *)
    let c = spec.canon_local sys ~pid:p d in
    if c != d then out := Cimp.System.map_data !out p (fun _ -> c)
  done;
  !out

(* All permutations of a list, for the property tests. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* Insertion sort of a small int array in place; returns whether
   anything moved.  A stable sort leaves an already sorted array alone,
   so "moved" is exactly "the canonical order differs from pid order". *)
let sort_small a =
  let moved = ref false in
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    if !j + 1 <> i then begin
      a.(!j + 1) <- x;
      moved := true
    end
  done;
  !moved

let tag_sorted = 19
let tag_indexed = 23

(* Canonical fingerprint of [sys] under [spec].  Returns the fingerprint
   plus whether the sort actually permuted anything and whether any
   register was nulled (for the reduction counters). *)
let canonical_fingerprint spec =
  let open Check.Fingerprint in
  let n_sym = List.length spec.sym_pids in
  let is_sym = Array.make (1 + List.fold_left max (-1) spec.sym_pids) false in
  List.iter (fun p -> is_sym.(p) <- true) spec.sym_pids;
  fun sys ->
    let syms = Array.make n_sym 0 in
    let k = ref 0 in
    let h = ref seed in
    let nulled = ref false in
    for p = 0 to Cimp.System.n_procs sys - 1 do
      let cfg = Cimp.System.proc sys p in
      let d = cfg.Cimp.Com.data in
      let canon = spec.canon_local sys ~pid:p d in
      if canon != d then nulled := true;
      let ctl = control cfg.Cimp.Com.stack in
      if p < Array.length is_sym && is_sym.(p) then begin
        syms.(!k) <- mix ctl (spec.sym_hash sys ~pid:p ~canon);
        incr k
      end
      else h := mix !h (mix ctl (spec.fixed_hash sys ~pid:p ~canon))
    done;
    let sorted = n_sym > 1 && spec.permute_ok sys in
    let permuted = sorted && sort_small syms in
    (* the tag keeps a sorted mix apart from an index-order one *)
    let h = ref (mix !h (if sorted then tag_sorted else tag_indexed)) in
    Array.iter (fun x -> h := mix !h x) syms;
    (finish !h, permuted, !nulled)
