(* Assembly of the full model:  GC || M1 || ... || Mn || Sys  (Section 3.1).

   The initial state places the collector at the top of its loop (about to
   run the idle-sync handshake of Fig. 2 lines 3-4), the mutators at their
   top-of-loop GC-safe points, and Sys with: the shape's heap (all objects
   marked with the current sense, i.e. black), f_A = f_M, phase = Idle,
   empty buffers and work-lists, no lock, and the ghost handshake state
   recording a just-completed termination round — exactly the paper's
   steady idle configuration ("the collector is idle to begin with ...
   at this point the entire heap is black"). *)

open Types

type sys = (msg, value, State.t) Cimp.System.t

type t = { cfg : Config.t; shape : Gcheap.Shapes.t; system : sys }

let programs cfg =
  let coms =
    [ Collector.process cfg ]
    @ List.init cfg.Config.n_muts (fun m -> Mutator.process cfg m)
    @ [ Sysproc.process cfg ]
  in
  coms

(* Labels must be unique within each process for control fingerprinting. *)
let validate_labels cfg =
  List.iteri
    (fun p com ->
      match Cimp.Com.duplicate_labels com with
      | [] -> ()
      | dups ->
        invalid_arg
          (Fmt.str "Model: duplicate labels in %s: %a" (Config.proc_name cfg p)
             Fmt.(list ~sep:comma string)
             dups))
    (programs cfg)

let initial_sys_data cfg (shape : Gcheap.Shapes.t) =
  let n_soft = Config.n_software cfg in
  {
    State.s_mem = { State.fA = false; fM = false; phase = Ph_idle; heap = shape.Gcheap.Shapes.heap };
    s_bufs = List.init n_soft (fun _ -> []);
    s_lock = None;
    s_hs_type = Hs_get_work;
    s_hs_pending = List.init cfg.Config.n_muts (fun _ -> false);
    s_hs_done = List.init cfg.Config.n_muts (fun _ -> true);
    s_hs_mut_hs = List.init cfg.Config.n_muts (fun _ -> Hs_get_work);
    s_W = List.init n_soft (fun _ -> []);
    s_ghg = List.init n_soft (fun _ -> None);
    s_dangling = false;
  }

let make cfg (shape : Gcheap.Shapes.t) : t =
  if Gcheap.Heap.n_refs shape.Gcheap.Shapes.heap <> cfg.Config.n_refs then
    invalid_arg "Model.make: shape/config n_refs mismatch";
  validate_labels cfg;
  let data p =
    if p = Config.pid_gc then State.L_gc State.gc_data0
    else if p = Config.pid_sys cfg then State.L_sys (initial_sys_data cfg shape)
    else State.L_mut (State.mut_data0 (Gcheap.Shapes.roots_for shape (p - 1)))
  in
  let coms = programs cfg in
  let procs = Array.of_list (List.mapi (fun p com -> Cimp.Com.make [ com ] (data p)) coms) in
  let names = Array.init (Config.n_procs cfg) (Config.proc_name cfg) in
  { cfg; shape; system = Cimp.System.make names procs }

(* -- Projections used by the invariants and the experiment drivers ------- *)

let sys_data (sys : sys) cfg = State.sys (Cimp.System.proc sys (Config.pid_sys cfg)).Cimp.Com.data
let gc_data (sys : sys) = State.gc (Cimp.System.proc sys Config.pid_gc).Cimp.Com.data
let mut_data (sys : sys) cfg m =
  State.mut (Cimp.System.proc sys (Config.pid_mut cfg m)).Cimp.Com.data

(* Is process p's control inside a label whose name starts with [prefix]? *)
let at_prefix (sys : sys) p prefix =
  Cimp.Com.exists_at (String.starts_with ~prefix) (Cimp.System.proc sys p)
