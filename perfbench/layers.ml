(* layers — the benchmark's traced replay of one checker workload.

   It re-runs the work of an untimed `gcmodel explore`, `walk` or
   `recheck` through the checker's public layer functions, records a
   span around every call into a layer, and prints one JSON object:
   the answer (so run.py can assert it equals the untraced command's
   pinned answer), per-span call counts, self and total times, and the
   layer counters that only exist at these call sites.

     layers explore --muts 2 --refs 2 --ops 1 --cycles 2 [--spans FILE]
     layers walk    --muts 2 --refs 2 --ops 2 --cycles 1000 --seed S --steps N [--spans FILE]
     layers recheck --refs 2 --ops 3 --cycles 2 --dir CERT [--spans FILE]
     layers host    (Domain.recommended_domain_count and the OCaml version)
     layers calibrate (the fixed speed probe run.py normalizes times by)

   A span's self time is its duration minus the durations of its
   direct children.  Spans marked [reference] do work the untraced
   command does not do at that point (a second, unreduced successor
   pass for the ample ratio; Fingerprint.of_system as a hashing
   reference; a separate table load); they are excluded from the
   traced total so that total stays comparable with the untraced wall
   time.  Spans are held in memory and written to [--spans] at exit. *)

(* -- spans ------------------------------------------------------------------ *)

type spans = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable innermost : int;  (* open span, -1 at top level *)
}

let sp =
  let cap = 1 lsl 16 in
  {
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    innermost = -1;
  }

let names : (string * bool) list ref = ref [] (* newest first: (name, reference) *)
let n_names = ref 0

let intern ?(reference = false) s =
  names := (s, reference) :: !names;
  incr n_names;
  !n_names - 1

let grow () =
  let cap = 2 * Array.length sp.name in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 sp.n;
    b
  in
  sp.name <- g sp.name;
  sp.parent <- g sp.parent;
  sp.start <- g sp.start;
  sp.stop <- g sp.stop

let enter nm =
  if sp.n = Array.length sp.name then grow ();
  let i = sp.n in
  sp.n <- i + 1;
  sp.name.(i) <- nm;
  sp.parent.(i) <- sp.innermost;
  sp.innermost <- i;
  sp.start.(i) <- Obs.Clock.monotonic_ns ();
  i

let leave i =
  sp.stop.(i) <- Obs.Clock.monotonic_ns ();
  sp.innermost <- sp.parent.(i)

let span nm f =
  let i = enter nm in
  match f () with
  | r ->
    leave i;
    r
  | exception e ->
    leave i;
    raise e

type summary = {
  calls : int array;  (* per name *)
  self_ns : int array;
  total_ns : int array;
  reference_ns : int;  (* summed duration of reference spans *)
}

let summarize () =
  let k = !n_names in
  let is_ref = Array.make k false in
  List.iteri (fun i (_, r) -> is_ref.(k - 1 - i) <- r) !names;
  let child = Array.make sp.n 0 in
  for i = 0 to sp.n - 1 do
    let p = sp.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (sp.stop.(i) - sp.start.(i))
  done;
  let calls = Array.make k 0 and self_ns = Array.make k 0 and total_ns = Array.make k 0 in
  let reference_ns = ref 0 in
  for i = 0 to sp.n - 1 do
    let nm = sp.name.(i) and d = sp.stop.(i) - sp.start.(i) in
    calls.(nm) <- calls.(nm) + 1;
    total_ns.(nm) <- total_ns.(nm) + d;
    self_ns.(nm) <- self_ns.(nm) + d - child.(i);
    if is_ref.(nm) then reference_ns := !reference_ns + d
  done;
  { calls; self_ns; total_ns; reference_ns = !reference_ns }

(* one line per span: index, name, parent index, start and stop in ns
   relative to the first span's start *)
let write_spans path =
  let oc = open_out path in
  let t0 = if sp.n > 0 then sp.start.(0) else 0 in
  List.iteri
    (fun i (s, r) ->
      Printf.fprintf oc "# name %d %s%s\n" (!n_names - 1 - i) s (if r then " reference" else ""))
    !names;
  output_string oc "# span\tname\tparent\tstart_ns\tstop_ns\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%d\t%d\n" i sp.name.(i) sp.parent.(i) (sp.start.(i) - t0)
      (sp.stop.(i) - t0)
  done;
  close_out oc

(* -- layer span names -------------------------------------------------------- *)

let n_engine = intern "engine"
let n_steps = intern "cimp.steps"
let n_steps_ref = intern ~reference:true "cimp.steps"
let n_normalize = intern "cimp.normalize"
let n_successors = intern "reduce.successors"
let n_canon = intern "reduce.canon_state"
let n_fingerprint = intern "fingerprint"
let n_hash_only = intern ~reference:true "fingerprint.hash_only"
let n_store_add = intern "store.add"
let n_load_table = intern ~reference:true "certify.load_table"
let n_validate = intern "certify.validate"

(* the invariant catalogue, each predicate behind its own span *)
let traced_invariants invs =
  List.map
    (fun (name, p) ->
      let nm = intern ("invariants." ^ name) in
      (name, nm, fun sys -> span nm (fun () -> p sys)))
    invs

(* first failing invariant in catalogue order, as the checkers report it *)
let first_violation invs sys =
  List.find_map (fun (name, _, p) -> if p sys then None else Some name) invs

(* -- instances ----------------------------------------------------------------- *)

(* the instance `gcmodel <cmd> --muts M --refs R --ops O --cycles C` builds:
   paper variant, single shape, one field, buffers of one, mutator MFENCE on *)
let scenario ~muts ~refs ~ops ~cycles =
  Core.Scenario.make ~n_muts:muts ~n_refs:refs ~max_cycles:cycles ~max_mut_ops:ops
    ~mut_mfence:true ~label:"perfbench" ~shape:"single" ()

let reducer_all sc = Option.get (Core.Reduction.reducer sc.Core.Scenario.cfg Reduce.Mode.All)

(* -- replays ------------------------------------------------------------------ *)

let json_int k v = (k, Obs.Json.Int v)
let json_float k v = (k, Obs.Json.Float v)

(* The default explore: FIFO BFS in normal form over the reducer's
   quotient graph, first-arrival dedup on the reducer's fingerprint,
   invariants evaluated on each fresh class's canonical representative.
   The seen-set is Store.Tiered, the store the parallel engine uses. *)
let explore sc =
  let reducer = reducer_all sc in
  let invs = traced_invariants (Core.Scenario.invariants sc) in
  let initial = (Core.Scenario.model sc).Core.Model.system in
  let store = Store.Tiered.create () in
  let q = Queue.create () in
  let states = ref 0 and transitions = ref 0 and depth = ref 0 and deadlocks = ref 0 in
  let adds = ref 0 and frontier_peak = ref 0 in
  let full_succs = ref 0 and ample_succs = ref 0 in
  let violation = ref None in
  let enqueue ~parent ~d sys =
    let fp = span n_fingerprint (fun () -> reducer.Check.Reducer.fingerprint sys) in
    span n_hash_only (fun () -> ignore (Check.Fingerprint.of_system sys));
    let h = Check.Fingerprint.hash fp in
    incr adds;
    match span n_store_add (fun () -> Store.Tiered.add store h ~parent ~event:0 ~depth:d) with
    | Store.Tiered.Stale | Store.Tiered.Improved _ -> ()
    | Store.Tiered.Fresh ->
      incr states;
      if d > !depth then depth := d;
      let sys = span n_canon (fun () -> reducer.Check.Reducer.canon_state sys) in
      if !violation = None then violation := first_violation invs sys;
      Queue.add (h, sys, d) q;
      if Queue.length q > !frontier_peak then frontier_peak := Queue.length q
  in
  let root = enter n_engine in
  enqueue ~parent:0 ~d:0 (span n_normalize (fun () -> Cimp.System.normalize initial));
  while (not (Queue.is_empty q)) && !violation = None do
    let h, sys, d = Queue.pop q in
    let succs = span n_successors (fun () -> reducer.Check.Reducer.successors sys) in
    let full = span n_steps_ref (fun () -> Cimp.System.steps sys) in
    full_succs := !full_succs + List.length full;
    ample_succs := !ample_succs + List.length succs;
    if succs = [] then incr deadlocks;
    List.iter
      (fun (_ev, sys') ->
        incr transitions;
        enqueue ~parent:h ~d:(d + 1) (span n_normalize (fun () -> Cimp.System.normalize sys')))
      succs
  done;
  leave root;
  let st = Store.Tiered.stats store in
  [
    ("verdict", Obs.Json.String (match !violation with None -> "SAFE" | Some n -> n));
    json_int "states" !states;
    json_int "transitions" !transitions;
    json_int "depth" !depth;
    json_int "deadlocks" !deadlocks;
    json_int "full_successors" !full_succs;
    json_int "ample_successors" !ample_succs;
    json_int "store_adds" !adds;
    json_int "store_fresh" !states;
    json_int "store_capacity_bytes" (Store.Tiered.capacity store * Store.Tiered.entry_bytes);
    json_int "store_peak_resident_bytes" st.Store.Tiered.peak_resident_bytes;
    json_int "frontier_peak" !frontier_peak;
  ]

(* The default walk (reduce none, one walker): uniform random successor
   choice from Random.State.make [| seed |], normal form, restart after
   5000 steps or at a dead end, invariants checked at every state. *)
let walk sc ~seed ~steps =
  let max_run_length = 5_000 in
  let invs = traced_invariants (Core.Scenario.invariants sc) in
  let initial0 = (Core.Scenario.model sc).Core.Model.system in
  let root = enter n_engine in
  let initial = span n_normalize (fun () -> Cimp.System.normalize initial0) in
  let rng = Random.State.make [| seed |] in
  let violation = ref (first_violation invs initial) in
  let taken = ref 0 and runs = ref 0 and restarts = ref 0 and expanded = ref 0 in
  let full_succs = ref 0 in
  while !violation = None && !taken < steps do
    incr runs;
    let sys = ref initial and len = ref 0 and continue = ref true in
    while !continue && !violation = None && !taken < steps && !len < max_run_length do
      let succs = span n_steps (fun () -> Cimp.System.steps !sys) in
      incr expanded;
      full_succs := !full_succs + List.length succs;
      match succs with
      | [] ->
        incr restarts;
        continue := false
      | _ ->
        let _ev, sys' = List.nth succs (Random.State.int rng (List.length succs)) in
        let sys' = span n_normalize (fun () -> Cimp.System.normalize sys') in
        sys := sys';
        incr taken;
        incr len;
        violation := first_violation invs sys'
    done
  done;
  leave root;
  [
    ("verdict", Obs.Json.String (match !violation with None -> "SAFE" | Some n -> n));
    json_int "steps" !taken;
    json_int "runs" !runs;
    json_int "dead_ends" !restarts;
    json_int "expanded" !expanded;
    json_int "full_successors" !full_succs;
  ]

(* `gcmodel recheck DIR`: Recheck.validate with the reducer's three
   functions and every invariant predicate wrapped in spans; the
   validator's own table membership, depth and coverage checks (and the
   normalization it runs internally) are its self time. *)
let recheck sc ~dir =
  let reducer = reducer_all sc in
  let invs = traced_invariants (Core.Scenario.invariants sc) in
  let initial = (Core.Scenario.model sc).Core.Model.system in
  let h =
    match Certify.Certificate.read_header dir with
    | Ok h -> h
    | Error msg -> failwith ("certificate header: " ^ msg)
  in
  let full_succs = ref 0 and ample_succs = ref 0 in
  let traced =
    {
      reducer with
      Check.Reducer.fingerprint =
        (fun s -> span n_fingerprint (fun () -> reducer.Check.Reducer.fingerprint s));
      successors =
        (fun s ->
          let succs = span n_successors (fun () -> reducer.Check.Reducer.successors s) in
          let full = span n_steps_ref (fun () -> Cimp.System.steps s) in
          full_succs := !full_succs + List.length full;
          ample_succs := !ample_succs + List.length succs;
          succs);
      canon_state = (fun s -> span n_canon (fun () -> reducer.Check.Reducer.canon_state s));
    }
  in
  let root = enter n_engine in
  let entries =
    span n_load_table (fun () ->
        Certify.Certificate.load_table ~expected_digest:h.Certify.Certificate.table_digest dir)
  in
  let result =
    span n_validate (fun () ->
        Certify.Recheck.validate ~reducer:(Some traced)
          ~invariants:(List.map (fun (name, _, p) -> (name, p)) invs)
          ~config_hash:(Core.Config.hash sc.Core.Scenario.cfg) ~dir initial)
  in
  leave root;
  match (entries, result) with
  | Error msg, _ | _, Error msg -> failwith ("recheck: " ^ msg)
  | Ok _, Ok (_, st) ->
    [
      ("verdict", Obs.Json.String "OK");
      json_int "states" st.Certify.Recheck.states;
      json_int "transitions" st.Certify.Recheck.transitions;
      json_int "depth" st.Certify.Recheck.max_depth;
      json_int "table_bytes" st.Certify.Recheck.table_bytes;
      json_int "full_successors" !full_succs;
      json_int "ample_successors" !ample_succs;
    ]

(* A fixed workload that uses none of the checker's code but has the
   checkers' memory behaviour: a large live heap of small blocks that is
   updated at random (promotion, major marking and sweeping) and a high
   rate of short-lived allocation (minor collections).  run.py times it
   before and after each timed repetition, as a probe of the host's speed
   for this kind of program at that moment. *)
let calibrate () =
  let live = Array.init 500_000 (fun i -> [ i; i + 1 ]) in
  let rng = Random.State.make [| 17 |] in
  let acc = ref 0 in
  for k = 1 to 1_000_000 do
    let j = Random.State.int rng 500_000 in
    let cell = List.rev_map (fun x -> x + k) live.(j) in
    if k land 3 = 0 then live.(j) <- cell;
    acc := !acc + List.hd cell + Hashtbl.hash (j, k, cell)
  done;
  !acc

(* -- command line ------------------------------------------------------------- *)

let usage = "layers (explore|walk|recheck|host|calibrate) [--muts M] [--refs R] [--ops O] [--cycles C] ..."

let () =
  let muts = ref 1 and refs = ref 3 and ops = ref 2 and cycles = ref 1 in
  let seed = ref 42 and steps = ref 100_000 and dir = ref "" and spans = ref "" in
  let cmd = ref "" in
  Arg.parse
    [
      ("--muts", Arg.Set_int muts, "M mutators");
      ("--refs", Arg.Set_int refs, "R heap references");
      ("--ops", Arg.Set_int ops, "O heap operations per mutator");
      ("--cycles", Arg.Set_int cycles, "C collector cycles");
      ("--seed", Arg.Set_int seed, "S walk seed");
      ("--steps", Arg.Set_int steps, "N walk steps");
      ("--dir", Arg.Set_string dir, "DIR certificate directory (recheck)");
      ("--spans", Arg.Set_string spans, "FILE write every span to FILE");
    ]
    (fun a -> if !cmd = "" then cmd := a else raise (Arg.Bad ("unexpected " ^ a)))
    usage;
  if !cmd = "calibrate" then begin
    Printf.printf "calibrate %d\n" (calibrate ());
    exit 0
  end;
  if !cmd = "host" then begin
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              json_int "recommended_domain_count" (Domain.recommended_domain_count ());
              ("ocaml_version", Obs.Json.String Sys.ocaml_version);
            ]));
    exit 0
  end;
  let sc = scenario ~muts:!muts ~refs:!refs ~ops:!ops ~cycles:!cycles in
  let answer =
    match !cmd with
    | "explore" -> explore sc
    | "walk" -> walk sc ~seed:!seed ~steps:!steps
    | "recheck" -> recheck sc ~dir:!dir
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let s = summarize () in
  let per_span =
    List.rev
      (List.mapi
         (fun i (name, reference) ->
           let k = !n_names - 1 - i in
           ( (if reference then name ^ ".reference" else name),
             Obs.Json.Obj
               [
                 json_int "calls" s.calls.(k);
                 json_float "self_s" (Obs.Clock.ns_to_s s.self_ns.(k));
                 json_float "total_s" (Obs.Clock.ns_to_s s.total_ns.(k));
               ] ))
         !names)
  in
  let gc = Gc.quick_stat () in
  let out =
    Obs.Json.Obj
      (answer
      @ [
          json_float "traced_total_s" (Obs.Clock.ns_to_s (s.total_ns.(n_engine) - s.reference_ns));
          json_float "reference_s" (Obs.Clock.ns_to_s s.reference_ns);
          json_int "spans" sp.n;
          json_int "top_heap_words" gc.Gc.top_heap_words;
          ("layers", Obs.Json.Obj per_span);
        ])
  in
  if !spans <> "" then write_spans !spans;
  print_endline (Obs.Json.to_string out)
