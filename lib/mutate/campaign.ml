(* The mutation-testing campaign runner.

   A campaign checks each mutant against a suite of small scenarios (the
   checking analogue of a test suite), cheapest first, and classifies it:

   - killed: some scenario's exploration found a violation.  The record
     names the violated invariant AND the failing conjunct (recomputed from
     the witness on the trace's final state), the states and wall-time to
     detection, and the counterexample length — BFS order makes it a
     shortest one.
   - survived: every applicable scenario ran out without a violation.
     [closed = true] means they all closed their state spaces (a proof of
     equivalence at these bounds); [closed = false] means some run hit the
     state budget, so the verdict is "survived (budget exhausted)".
   - errored: the mutant broke the model (an exception during
     construction or exploration) — a campaign bug, not a verdict.

   Runs reuse the parallel explorer with reduction: mutations live in the
   shared program text, identically across mutator pids, so the symmetry
   and POR arguments of lib/reduce carry over unchanged. *)

type mutant = {
  name : string;
  operator : string;
  site : string;
  doc : string;
  rationale : string;
  expected_equivalent : bool;
  applies : Core.Config.t -> bool;
  tweak : Core.Config.t -> Core.Config.t;
}

let of_operator (op : Operators.t) =
  {
    name = op.Operators.name;
    operator = op.Operators.operator;
    site = op.Operators.site;
    doc = op.Operators.doc;
    rationale = op.Operators.rationale;
    expected_equivalent = op.Operators.expected_equivalent;
    applies = Operators.applies op;
    tweak = Operators.tweak op;
  }

let of_variant (v : Core.Variants.t) =
  {
    name = "variant:" ^ v.Core.Variants.name;
    operator = "variant";
    site = v.Core.Variants.name;
    doc = v.Core.Variants.description;
    rationale = v.Core.Variants.description;
    expected_equivalent = false;
    applies = (fun _ -> true);
    tweak = v.Core.Variants.tweak;
  }

type kill = {
  invariant : string;
  conjunct : string;
  scenario : string;
  states_to_kill : int;
  time_to_kill : float;
  ce_length : int;
}

type classification = Killed of kill | Survived of { closed : bool } | Errored of string

type run = { run_scenario : string; run_states : int; run_elapsed : float; run_truncated : bool }

type entry = {
  mutant : mutant;
  classification : classification;
  states_total : int;
  elapsed_total : float;
  runs : run list;
}

type outcome = {
  entries : entry list;
  scenario_labels : string list;
  budget : int;
  jobs : int;
  reduce : Reduce.Mode.t;
  invariants : Core.Invariants.t list;  (* kill-matrix columns (paper config) *)
}

(* The default scenario suite, cheapest first.  Together the four kill all
   five hand-written ablations (each embeds one minimal-witness instance
   from Scenario.witness_for) and arm every operator family:

   - handshakes: no heap operations, two bounded cycles — the pure
     handshake/phase machinery.  Kills the armed drop-fence and
     skip-hs-wait mutants via the span invariants; with >= 2 mutators it
     also races the root marks (weaken-cas).
   - alloc: allocation + discard only — kills the allocation-color
     mutants and the no-fences ablation (stale f_A).
   - chain: loads + stores over the 3-chain — kills the
     deletion-barrier mutants (hiding through the chain).
   - alloc-store: the full repertoire, 3 ops — kills the
     insertion-barrier mutants (store an unmarked reference into a black
     object, then discard the root). *)
let scenarios ?(muts = 1) () =
  [
    Core.Scenario.make ~label:"campaign-handshakes" ~n_muts:muts ~n_refs:2 ~shape:"single"
      ~max_cycles:2 ~max_mut_ops:1 ~buf_bound:2
      ~tweak:(fun c ->
        { c with Core.Config.mut_load = false; mut_store = false; mut_alloc = false; mut_discard = false })
      ~note:"no heap ops, two cycles: the pure handshake/phase machinery" ();
    Core.Scenario.make ~label:"campaign-alloc" ~n_muts:muts ~n_refs:2 ~shape:"single"
      ~max_mut_ops:2 ~buf_bound:2
      ~tweak:(fun c -> { c with Core.Config.mut_load = false; mut_store = false })
      ~note:"allocation + discard only" ();
    Core.Scenario.make ~label:"campaign-chain" ~n_muts:muts ~shape:"chain3" ~max_mut_ops:3
      ~tweak:(fun c -> { c with Core.Config.mut_alloc = false; mut_discard = false })
      ~note:"loads + stores over the 3-chain" ();
    Core.Scenario.make ~label:"campaign-alloc-store" ~n_muts:muts ~n_refs:2 ~shape:"single"
      ~max_mut_ops:3 ~note:"full repertoire, 3 ops" ();
  ]

(* The campaign's default mutant population: the whole operator catalogue
   (enumerated against the first scenario's configuration joined with the
   full repertoire, so barrier/alloc sites are present) plus the five
   hand-written ablations. *)
let default_mutants ?(muts = 1) () =
  let cfg =
    { Core.Config.default with n_muts = muts; max_cycles = 2; max_mut_ops = 3; buf_bound = 2 }
  in
  List.map of_operator (Operators.all cfg) @ List.map of_variant Core.Variants.ablations

(* Name the failing conjunct by evaluating the violated invariant's witness
   on the trace's final state; [trace.broken] only names the invariant. *)
let conjunct_of cfg trace =
  match Core.Invariants.find cfg trace.Check.Trace.broken with
  | None -> trace.Check.Trace.broken
  | Some inv -> (
    match Core.Invariants.witness inv (Check.Trace.final trace) with
    | [] -> trace.Check.Trace.broken
    | wit :: _ -> wit.Core.Invariants.conjunct)

let classification_fields = function
  | Killed k ->
    [
      ("status", Obs.Json.String "killed");
      ("invariant", Obs.Json.String k.invariant);
      ("conjunct", Obs.Json.String k.conjunct);
      ("scenario", Obs.Json.String k.scenario);
      ("states_to_kill", Obs.Json.Int k.states_to_kill);
      ("time_to_kill", Obs.Json.Float k.time_to_kill);
      ("ce_length", Obs.Json.Int k.ce_length);
    ]
  | Survived { closed } ->
    [ ("status", Obs.Json.String "survived"); ("closed", Obs.Json.Bool closed) ]
  | Errored msg -> [ ("status", Obs.Json.String "error"); ("error", Obs.Json.String msg) ]

let emit_entry obs e =
  Obs.Reporter.emit obs "campaign"
    ([
       ("mutant", Obs.Json.String e.mutant.name);
       ("operator", Obs.Json.String e.mutant.operator);
       ("site", Obs.Json.String e.mutant.site);
       ("expected_equivalent", Obs.Json.Bool e.mutant.expected_equivalent);
     ]
    @ classification_fields e.classification
    @ [
        ("states_total", Obs.Json.Int e.states_total);
        ("elapsed_total", Obs.Json.Float e.elapsed_total);
        ("scenarios_run", Obs.Json.Int (List.length e.runs));
      ])

(* Check one mutant: scenarios in order, stop at the first kill. *)
let check_mutant ~budget ~jobs ~reduce ~scenarios (m : mutant) =
  let rec go runs states elapsed closed = function
    | [] ->
      {
        mutant = m;
        classification = Survived { closed };
        states_total = states;
        elapsed_total = elapsed;
        runs = List.rev runs;
      }
    | sc :: rest ->
      let cfg = m.tweak sc.Core.Scenario.cfg in
      if not (m.applies sc.Core.Scenario.cfg) then go runs states elapsed closed rest
      else begin
        let sc' = { sc with Core.Scenario.cfg } in
        let o = Core.Scenario.explore ~max_states:budget ~jobs ~reduce sc' in
        let run =
          {
            run_scenario = sc.Core.Scenario.label;
            run_states = o.Check.Explore.states;
            run_elapsed = o.Check.Explore.elapsed;
            run_truncated = o.Check.Explore.truncated;
          }
        in
        let states = states + o.Check.Explore.states in
        let elapsed = elapsed +. o.Check.Explore.elapsed in
        match o.Check.Explore.violation with
        | Some trace ->
          {
            mutant = m;
            classification =
              Killed
                {
                  invariant = trace.Check.Trace.broken;
                  conjunct = conjunct_of cfg trace;
                  scenario = sc.Core.Scenario.label;
                  states_to_kill = o.Check.Explore.states;
                  time_to_kill = o.Check.Explore.elapsed;
                  ce_length = Check.Trace.length trace;
                };
            states_total = states;
            elapsed_total = elapsed;
            runs = List.rev (run :: runs);
          }
        | None -> go (run :: runs) states elapsed (closed && not o.Check.Explore.truncated) rest
      end
  in
  try go [] 0 0. true scenarios
  with exn ->
    {
      mutant = m;
      classification = Errored (Printexc.to_string exn);
      states_total = 0;
      elapsed_total = 0.;
      runs = [];
    }

(* -- equivalence certificates ------------------------------------------------

   A [Survived { closed = true }] verdict claims equivalence at the
   suite's bounds, but the claim lives only in the campaign's output.
   With a certificate directory, the campaign *closes* each surviving
   equivalent by certificate: per applicable scenario,
   Certify.Writer.derive re-derives the reach table (the explorer at
   jobs=1 with no state cap: the campaign budget must not refuse a large
   survivor as truncated) and writes a certificate whose header embeds
   the mutated scenario (Core.Scenario.to_json), from which `gcmodel
   recheck` rebuilds the instance exactly.  The equivalence claim then
   stays checkable long after the campaign ran, by a validator that
   shares no code with the explorer. *)

let sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c | _ -> '-')
    s

let certify_survivor ~dir ~reduce ~scenarios (m : mutant) =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | sc :: rest ->
      if not (m.applies sc.Core.Scenario.cfg) then go acc rest
      else begin
        let cfg = m.tweak sc.Core.Scenario.cfg in
        let sc' = { sc with Core.Scenario.label = sc.Core.Scenario.label ^ "+" ^ m.name; cfg } in
        let model = Core.Scenario.model sc' in
        let reducer = Core.Reduction.reducer cfg reduce in
        let invariants = Core.Scenario.invariants sc' in
        match Certify.Writer.derive ~reducer ~invariants model.Core.Model.system with
        | Error e -> Error (sc.Core.Scenario.label, e)
        | Ok (entries, max_depth) -> (
          let out =
            Filename.concat dir
              (Filename.concat (sanitize m.name) (sanitize sc.Core.Scenario.label))
          in
          match
            Certify.Writer.write ~dir:out ~config_hash:(Core.Config.hash cfg)
              ~reduce:(Reduce.Mode.to_string reduce)
              ~invariant_names:(List.map fst invariants)
              ~scenario:(Core.Scenario.to_json sc') ~safety_only:false ~max_depth entries
          with
          | Error e -> Error (sc.Core.Scenario.label, e)
          | Ok h -> go ((sc.Core.Scenario.label, out, h.Certify.Certificate.states) :: acc) rest)
      end
  in
  go [] scenarios

let run ?(obs = Obs.Reporter.null) ?(budget = 300_000) ?(jobs = 1) ?(reduce = Reduce.Mode.All)
    ?scenarios:(suite = scenarios ()) ?certificates ~mutants () =
  let entries =
    List.map
      (fun m ->
        let e = check_mutant ~budget ~jobs ~reduce ~scenarios:suite m in
        emit_entry obs e;
        (match (certificates, e.classification) with
        | Some dir, Survived { closed = true } -> (
          match certify_survivor ~dir ~reduce ~scenarios:suite m with
          | Ok certs ->
            List.iter
              (fun (label, out, states) ->
                Obs.Reporter.emit obs "certificate"
                  [
                    ("mutant", Obs.Json.String m.name);
                    ("scenario", Obs.Json.String label);
                    ("dir", Obs.Json.String out);
                    ("states", Obs.Json.Int states);
                  ])
              certs
          | Error (label, msg) ->
            Obs.Reporter.emit obs "certificate"
              [
                ("mutant", Obs.Json.String m.name);
                ("scenario", Obs.Json.String label);
                ("error", Obs.Json.String msg);
              ])
        | _ -> ());
        e)
      mutants
  in
  let paper_cfg =
    match suite with
    | sc :: _ -> sc.Core.Scenario.cfg
    | [] -> Core.Config.default
  in
  {
    entries;
    scenario_labels = List.map (fun sc -> sc.Core.Scenario.label) suite;
    budget;
    jobs;
    reduce;
    invariants = Core.Invariants.all paper_cfg;
  }

(* -- Survivor triage ------------------------------------------------------- *)

(* An explain-style stub for a surviving mutant: what ran, what it means,
   and the commands that push the investigation further. *)
let triage_stub (e : entry) =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "# Survivor triage: %s\n\n" e.mutant.name;
  add "- operator: `%s`, site: `%s`\n" e.mutant.operator e.mutant.site;
  add "- mutation: %s\n" e.mutant.doc;
  (match e.classification with
  | Survived { closed } ->
    add "- verdict: survived (%s)\n"
      (if closed then "all applicable scenarios closed their state spaces"
       else "state budget exhausted before closing")
  | Killed _ -> add "- verdict: killed (no triage needed)\n"
  | Errored msg -> add "- verdict: error: %s\n" msg);
  add "\n## Runs\n\n";
  if e.runs = [] then add "No scenario had the mutated program point; the mutant never ran.\n"
  else
    List.iter
      (fun r ->
        add "- `%s`: %d states in %.2fs%s\n" r.run_scenario r.run_states r.run_elapsed
          (if r.run_truncated then " (budget exhausted)" else " (closed)"))
      e.runs;
  add "\n## Triage\n\n";
  if e.mutant.expected_equivalent then
    add
      "The catalogue predicts this mutant is an *equivalent mutant*: %s.  A closed \
       survivor confirms the analysis at these bounds; nothing to fix.\n"
      e.mutant.rationale
  else begin
    add
      "This mutant was expected to be killable.  Either the invariant catalogue has a \
       mutation-adequacy gap at this program point, or the scenario suite cannot reach \
       the distinguishing interleaving.\n\n";
    add "Next steps:\n\n";
    add "1. Re-run with a larger budget and more scenarios:\n";
    add "   `gcmodel campaign --operators %s --budget 2000000 --jobs 4`\n" e.mutant.operator;
    add "2. Hunt deep interleavings with the randomized swarm:\n";
    add "   `gcmodel walk --mutant %s --steps 500000 --jobs 4`\n" e.mutant.name;
    add "3. Inspect what the mutated run actually does:\n";
    add "   `gcmodel explain --mutant %s --last 12`\n" e.mutant.name
  end;
  Buffer.contents b
