(* Counterexample forensics: witness-carrying invariants, trace import
   validation, replay determinism, and the acceptance scenario — on the
   seeded write-barrier-elision bug the explainer must name the violated
   conjunct, the witness ref, and the store-buffer flush that lost the
   marking. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let nd_barrier () =
  Core.Scenario.witness_for (Option.get (Core.Variants.by_name "no-deletion-barrier"))

(* the same search `gcmodel explain` runs: reduced exhaustive BFS *)
let nd_violation =
  lazy
    (let sc = nd_barrier () in
     let o = Core.Scenario.explore ~safety_only:true ~reduce:Reduce.Mode.All sc in
     match o.Check.Explore.violation with
     | Some tr -> (sc, tr)
     | None -> Alcotest.fail "no-deletion-barrier witness scenario found no violation")

(* -- witness-carrying invariants --------------------------------------------- *)

let test_witness_iff_check () =
  let sc, tr = Lazy.force nd_violation in
  let final = Check.Trace.final tr in
  List.iter
    (fun inv ->
      let holds = Core.Invariants.check inv final in
      let ws = Core.Invariants.witness inv final in
      Alcotest.(check bool)
        (inv.Core.Invariants.name ^ ": witness empty iff check holds")
        holds (ws = []))
    (Core.Invariants.all sc.Core.Scenario.cfg);
  (* and on a healthy state every invariant is witness-free *)
  let initial = (Core.Scenario.model sc).Core.Model.system in
  List.iter
    (fun inv ->
      Alcotest.(check bool)
        (inv.Core.Invariants.name ^ ": no witness initially")
        true
        (Core.Invariants.witness inv initial = []))
    (Core.Invariants.all sc.Core.Scenario.cfg)

(* -- Check.Trace import validation -------------------------------------------- *)

let test_import_validates_labels () =
  let sc, tr = Lazy.force nd_violation in
  let json = Check.Trace.to_json tr in
  let right = (Core.Scenario.model sc).Core.Model.system in
  (match Check.Trace.import right json with
  | Ok (broken, events) ->
    Alcotest.(check string) "broken survives roundtrip" tr.Check.Trace.broken broken;
    Alcotest.(check int) "schedule length" (Check.Trace.length tr) (List.length events)
  | Error msg -> Alcotest.fail ("import against the recording system failed: " ^ msg));
  (* a different instance must be rejected with a diagnosis, not replayed
     into a confusing failure deep in the model *)
  let other =
    Core.Scenario.make ~label:"other" ~n_muts:2 ~n_refs:2 ~shape:"single" ~max_mut_ops:1 ()
  in
  let wrong = (Core.Scenario.model other).Core.Model.system in
  match Check.Trace.import wrong json with
  | Ok _ -> Alcotest.fail "import accepted a trace from a different system"
  | Error msg ->
    Alcotest.(check bool)
      ("diagnosis mentions the mismatch: " ^ msg)
      true
      (contains ~sub:"different system" msg
       || contains ~sub:"different instance" msg)

(* -- replay determinism -------------------------------------------------------- *)

let test_explain_deterministic () =
  let sc, tr = Lazy.force nd_violation in
  let cfg = sc.Core.Scenario.cfg in
  let json = Check.Trace.to_json tr in
  let replayed () =
    let initial = (Core.Scenario.model sc).Core.Model.system in
    match Explain.Replay.import_and_replay initial json with
    | Ok tr' -> tr'
    | Error msg -> Alcotest.fail ("replay failed: " ^ msg)
  in
  let tr1 = replayed () and tr2 = replayed () in
  let rep1 = Explain.Report.analyze cfg tr1 and rep2 = Explain.Report.analyze cfg tr2 in
  Alcotest.(check string)
    "export -> import -> explain twice is byte-identical (text)"
    (Explain.Report.render rep1) (Explain.Report.render rep2);
  Alcotest.(check string)
    "export -> import -> explain twice is byte-identical (html)"
    (Explain.Report.html rep1) (Explain.Report.html rep2);
  (* the reduce=all counterexample, replay-rebuilt, explains identically
     to the checker's own trace: replay reconstructed the same states *)
  let rep0 = Explain.Report.analyze cfg tr in
  Alcotest.(check string)
    "replay-rebuilt trace explains identically to the original"
    (Explain.Report.render rep0) (Explain.Report.render rep1)

(* -- the acceptance scenario --------------------------------------------------- *)

let test_seeded_bug_explanation () =
  let sc, tr = Lazy.force nd_violation in
  let rep = Explain.Report.analyze sc.Core.Scenario.cfg tr in
  Alcotest.(check string) "violated invariant" "free_only_garbage" rep.Explain.Report.broken;
  let conjuncts =
    List.map (fun w -> w.Core.Invariants.conjunct) rep.Explain.Report.witnesses
  in
  Alcotest.(check bool)
    "names the failing conjunct" true
    (List.mem "victim-unreachable" conjuncts);
  let refs =
    List.concat_map (fun w -> w.Core.Invariants.refs) rep.Explain.Report.witnesses
  in
  Alcotest.(check bool) "carries a witness ref" true (refs <> []);
  let explanation = Explain.Report.explanation rep in
  Alcotest.(check bool)
    "explanation names the conjunct" true
    (contains ~sub:"victim-unreachable" explanation);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Fmt.str "explanation mentions witness ref %d" r)
        true
        (contains ~sub:(string_of_int r) explanation))
    refs;
  (* the lost marking: a mutator field write sat in the store buffer and
     was committed by Sys without any deletion barrier shading the old
     target — both halves must be visible in the narrative *)
  let narrative = Explain.Report.narrative rep in
  Alcotest.(check bool)
    "narrative shows the buffered field write" true
    (contains ~sub:"TSO store-buffer push" narrative);
  Alcotest.(check bool)
    "narrative shows the store-buffer flush that committed it" true
    (contains ~sub:"store-buffer flush" narrative);
  let timeline = Explain.Report.timeline rep in
  Alcotest.(check bool)
    "timeline tags the flush" true
    (contains ~sub:"#flush" timeline);
  Alcotest.(check bool)
    "timeline tags fences" true
    (contains ~sub:"#fence" timeline)

let test_html_smoke () =
  let sc, tr = Lazy.force nd_violation in
  let rep = Explain.Report.analyze sc.Core.Scenario.cfg tr in
  let html = Explain.Report.html rep in
  Alcotest.(check bool) "doctype" true (has_prefix ~prefix:"<!DOCTYPE html>" html);
  Alcotest.(check bool)
    "names the invariant" true
    (contains ~sub:"free_only_garbage" html);
  Alcotest.(check bool)
    "escapes are applied (no raw <-> from pp_event)" true
    (not (contains ~sub:"<->" html));
  let path = Filename.temp_file "explain" ".html" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Explain.Report.write_html path rep;
      let written = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "write_html writes html" html written)

(* -- checker profiling --------------------------------------------------------- *)

let test_profile_record () =
  let sc = nd_barrier () in
  let obs, dump = Obs.Reporter.memory () in
  let (_ : _ Check.Explore.outcome) =
    Core.Scenario.explore ~safety_only:true ~reduce:Reduce.Mode.All ~obs sc
  in
  Obs.Reporter.close obs;
  let field name = function
    | Obs.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let profiles =
    List.filter (fun r -> field "event" r = Some (Obs.Json.String "profile")) (dump ())
  in
  Alcotest.(check bool) "exactly one profile record" true (List.length profiles = 1);
  let p = List.hd profiles in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("profile has " ^ key) true (field key p <> None))
    [
      "checker"; "states"; "transitions"; "elapsed_s"; "succ_gen_s"; "succ_gen_calls";
      "normalize_s"; "fingerprint_s"; "fingerprint_calls"; "invariant_s"; "invariant_evals";
      "other_s"; "minor_words"; "promoted_words"; "major_words"; "minor_collections";
      "major_collections"; "heap_words";
    ];
  (* attribution is real work, not zeroes *)
  (match field "invariant_evals" p with
  | Some (Obs.Json.Int n) -> Alcotest.(check bool) "invariants were evaluated" true (n > 0)
  | _ -> Alcotest.fail "invariant_evals is not an int")

let suite =
  [
    Alcotest.test_case "witness iff check" `Quick test_witness_iff_check;
    Alcotest.test_case "import validates labels" `Quick test_import_validates_labels;
    Alcotest.test_case "explain is deterministic" `Slow test_explain_deterministic;
    Alcotest.test_case "seeded bug is explained" `Quick test_seeded_bug_explanation;
    Alcotest.test_case "html report" `Quick test_html_smoke;
    Alcotest.test_case "profile record" `Slow test_profile_record;
  ]
