(* Scenario presets: (configuration, heap shape, bounds) bundles used by the
   experiment drivers, the test suite, and the benchmarks.

   Exhaustive scenarios are sized to close (Section "Bounds" of DESIGN.md):
   each bounds the number of collector cycles and per-mutator heap
   operations, making the reachable state space finite; the checker then
   *enumerates* it, which is the bounded analogue of the paper's induction.
   The minimal-witness scenarios are the smallest instances on which each
   ablation's counterexample is reachable. *)

type t = {
  label : string;
  cfg : Config.t;
  shape : Gcheap.Shapes.t;
  note : string;
}

let of_config ~label ~shape cfg =
  match Gcheap.Shapes.by_name ~n_refs:cfg.Config.n_refs ~n_fields:cfg.Config.n_fields shape with
  | Some shape -> Ok { label; cfg; shape; note = "" }
  | None -> Error ("unknown shape " ^ shape)

let make ?(n_muts = 1) ?(n_refs = 3) ?(n_fields = 1) ?(buf_bound = 1) ?(max_cycles = 1)
    ?(max_mut_ops = 2) ?(mut_mfence = false) ?(tweak = Fun.id) ~label ~shape ?(note = "") () =
  let cfg =
    tweak
      {
        Config.default with
        n_muts;
        n_refs;
        n_fields;
        buf_bound;
        max_cycles;
        max_mut_ops;
        mut_mfence;
      }
  in
  match of_config ~label ~shape cfg with
  | Ok sc -> { sc with note }
  | Error e -> invalid_arg ("Scenario.make: " ^ e)

(* The one serialized form of a checked instance, shared by checkpoint
   manifests and certificate headers.  The configuration travels as its
   [Config.describe] string — the same bytes [config_hash] digests — so
   rebuilding an instance never re-resolves command-line flags. *)
let to_json sc =
  Obs.Json.Obj
    [
      ("label", Obs.Json.String sc.label);
      ("config", Obs.Json.String (Config.describe sc.cfg));
      ("shape", Obs.Json.String sc.shape.Gcheap.Shapes.name);
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let str key =
    match Option.bind (Obs.Json.member key json) Obs.Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "scenario field %S missing or not a string" key)
  in
  let* label = str "label" in
  let* describe = str "config" in
  let* shape = str "shape" in
  let* cfg = Result.map_error (fun e -> "scenario field \"config\": " ^ e) (Config.of_describe describe) in
  of_config ~label ~shape cfg

let model sc = Model.make sc.cfg sc.shape

let invariants ?(safety_only = false) sc =
  let invs =
    if safety_only then Invariants.safety_invariants sc.cfg else Invariants.all sc.cfg
  in
  List.map (fun i -> (i.Invariants.name, Invariants.check i)) invs

(* [jobs] worker domains (default 1).  [reduce] defaults to None_ —
   callers opt in — and is applied identically at every [jobs] (the
   same Reduction.reducer value is threaded either way; its counters
   are atomic, so domains can share it). *)
let explore ?(max_states = 30_000_000) ?(jobs = 1) ?safety_only ?obs
    ?(reduce = Reduce.Mode.None_) sc =
  let reducer = Reduction.reducer sc.cfg reduce in
  Check.Explore.run ~jobs ~max_states ?obs ?reducer
    ~invariants:(invariants ?safety_only sc) (model sc).Model.system

let random_walk ?(seed = 42) ?(steps = 50_000) ?(jobs = 1) ?safety_only ?obs
    ?(reduce = Reduce.Mode.None_) sc =
  let reducer = Reduction.reducer sc.cfg reduce in
  Check.Random_walk.swarm ~jobs ~seed ~steps ?obs ?reducer
    ~invariants:(invariants ?safety_only sc) (model sc).Model.system

(* Reduced-vs-unreduced soundness cross-check on one scenario. *)
let crosscheck ?max_states ?safety_only ?obs ?(reduce = Reduce.Mode.All) sc =
  match Reduction.reducer sc.cfg reduce with
  | None -> invalid_arg "Scenario.crosscheck: reduce=none has nothing to cross-check"
  | Some reducer ->
    Reduce.Crosscheck.run ?max_states ?obs ~reducer ~invariants:(invariants ?safety_only sc)
      (model sc).Model.system

(* -- Presets --------------------------------------------------------------- *)

(* The default exhaustive instance for the paper's collector: one mutator
   with the full operation repertoire over a 2-reference heap, one cycle. *)
let baseline =
  make ~label:"baseline" ~n_refs:2 ~shape:"single" ~max_mut_ops:3
    ~note:"1 mutator, full repertoire, 2 refs, 1 cycle" ()

(* Two full cycles: exercises the sense flip, floating garbage collection
   in the second cycle, and the cycle-boundary invariants. *)
let two_cycles =
  make ~label:"two-cycles" ~n_refs:2 ~shape:"single" ~max_cycles:2 ~max_mut_ops:2
    ~note:"two full mark-sweep cycles" ()

(* Two racing mutators sharing a root. *)
let two_mutators =
  make ~label:"two-mutators" ~n_muts:2 ~n_refs:2 ~shape:"single" ~max_mut_ops:1
    ~note:"2 mutators share root 0 and race their barriers" ()

(* The Fig. 1 configuration with the chain through which deletion hides. *)
let fig1 =
  make ~label:"fig1" ~n_refs:4 ~shape:"fig1" ~max_mut_ops:2
    ~tweak:(fun c -> { c with Config.mut_alloc = false })
    ~note:"Figure 1's B -> W, G -> o -> W configuration" ()

(* Chain heap: the minimal witness for deletion-barrier hiding. *)
let chain =
  make ~label:"chain3" ~shape:"chain3" ~max_mut_ops:3
    ~tweak:(fun c -> { c with Config.mut_alloc = false; mut_discard = false })
    ~note:"chain 0 -> 1 -> 2, loads + stores only" ()

(* Deeper TSO buffering. *)
let deep_buffers =
  make ~label:"deep-buffers" ~n_refs:2 ~shape:"single" ~buf_bound:3 ~max_mut_ops:2
    ~note:"store buffers of capacity 3" ()

(* Three racing mutators: beyond the seed checker's reach at the default
   state cap, closed by the reduction subsystem (sym collapses up to 3!
   pid permutations per state). *)
let three_mutators =
  make ~label:"three-mutators" ~n_muts:3 ~n_refs:2 ~shape:"single" ~max_mut_ops:1
    ~note:"3 symmetric mutators share root 0; closes only under --reduce" ()

(* Apply a variant to a scenario. *)
let with_variant (v : Variants.t) sc =
  { sc with label = sc.label ^ "+" ^ v.Variants.name; cfg = v.Variants.tweak sc.cfg }

(* The minimal witness scenario for each ablation: the instance on which its
   counterexample is known to be reachable (see EXPERIMENTS.md). *)
let witness_for (v : Variants.t) =
  match v.Variants.name with
  | "no-deletion-barrier" | "no-barriers" -> with_variant v chain
  | "no-insertion-barrier" ->
    with_variant v
      (make ~label:"alloc-store-discard" ~n_refs:2 ~shape:"single" ~max_mut_ops:3
         ~note:"allocate black B, store white root into B, discard the root" ())
  | "alloc-white" ->
    with_variant v
      (make ~label:"alloc-only" ~n_refs:2 ~shape:"single" ~max_mut_ops:1
         ~note:"a single allocation during marking suffices" ())
  | "no-fences" ->
    with_variant v
      (make ~label:"stale-fA" ~n_refs:2 ~shape:"single" ~max_mut_ops:2 ~buf_bound:2
         ~tweak:(fun c -> { c with Config.mut_load = false; mut_store = false })
         ~note:
           "without the handshake store fence the fA := fM write never commits, so an \
            allocation reads stale f_A and comes out white; alloc + discard suffice" ())
  | "no-cas" ->
    with_variant v
      (make ~label:"mark-race" ~n_muts:2 ~n_refs:2 ~shape:"single"
         ~tweak:(fun c ->
           { c with Config.mut_load = false; mut_store = false; mut_alloc = false; mut_discard = false })
         ~note:"two mutators race to mark their shared root at get-roots; no heap ops needed" ())
  | _ -> with_variant v baseline

let exhaustive_grid = [ baseline; two_cycles; two_mutators; fig1; chain; deep_buffers ]
