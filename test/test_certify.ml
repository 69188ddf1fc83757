(* Tests for the certifying checker (lib/certify): certificate
   round-trips through both producers (jobs=1 store dump, jobs>1
   re-derivation at jobs=1) under reduce none/all, with the producing
   run's counts checked against the independent validator's,
   byte-determinism across
   producers, certdiff, and the adversarial tamper cases — a tampered
   certificate must fail closed with a diagnostic naming the offending
   fingerprint or header field, never validate. *)

let sc =
  Core.Scenario.make ~label:"cert-test" ~n_muts:1 ~n_refs:2 ~max_mut_ops:1 ~shape:"single" ()

let cfg = sc.Core.Scenario.cfg
let config_hash = Core.Config.hash cfg
let invariants = Core.Scenario.invariants sc
let initial () = (Core.Scenario.model sc).Core.Model.system
let reducer_of mode = Core.Reduction.reducer cfg mode

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gccert-test-%d-%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ok_or_fail what = function Ok v -> v | Error e -> Alcotest.fail (what ^ ": " ^ e)

(* Produce a certificate the way `gcmodel explore --jobs N` does: N=1
   dumps the explorer's own store (FIFO BFS, stamps are BFS distances),
   N>1 re-derives the table at jobs=1.  Returns the header and the
   producing run's outcome. *)
let make_cert ~jobs ~mode dir =
  let reducer = reducer_of mode in
  let dump = ref None in
  let on_store st = if jobs <= 1 then dump := Some (Certify.Writer.of_store st) in
  let o = Check.Explore.run ~jobs ~on_store ?reducer ~invariants (initial ()) in
  Alcotest.(check bool) "run closed without violation" true
    ((not o.Check.Explore.truncated) && o.Check.Explore.violation = None);
  let entries, max_depth =
    if jobs <= 1 then
      match !dump with
      | None -> Alcotest.fail "on_store never fired"
      | Some r -> ok_or_fail "of_store" r
    else ok_or_fail "derive" (Certify.Writer.derive ~reducer ~invariants (initial ()))
  in
  let h =
    ok_or_fail "write"
      (Certify.Writer.write ~dir ~config_hash ~reduce:(Reduce.Mode.to_string mode)
         ~invariant_names:(List.map fst invariants) ~scenario:(Core.Scenario.to_json sc)
         ~safety_only:false ~max_depth entries)
  in
  (h, o)

let validate ?(hash = config_hash) ~mode dir =
  Certify.Recheck.validate ~reducer:(reducer_of mode) ~invariants ~config_hash:hash ~dir
    (initial ())

(* -- Round-trips: both producers x reduce none/all ------------------------- *)

let round_trip ~jobs ~mode () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let h, o = make_cert ~jobs ~mode dir in
  let h', st = ok_or_fail "validate" (validate ~mode dir) in
  (* the independent validator is the engine's oracle: its BFS must
     count what the producing run counted *)
  Alcotest.(check int) "validator states = explorer states" o.Check.Explore.states
    st.Certify.Recheck.states;
  Alcotest.(check int) "validator transitions = explorer transitions"
    o.Check.Explore.transitions st.Certify.Recheck.transitions;
  Alcotest.(check int) "validator max depth = explorer depth" o.Check.Explore.depth
    st.Certify.Recheck.max_depth;
  Alcotest.(check int) "validated exactly the header's states" h.Certify.Certificate.states
    st.Certify.Recheck.states;
  Alcotest.(check int) "same max depth" h.Certify.Certificate.max_depth
    st.Certify.Recheck.max_depth;
  Alcotest.(check string) "header read back" h.Certify.Certificate.table_digest
    h'.Certify.Certificate.table_digest;
  Alcotest.(check bool) "some transitions were re-derived" true
    (st.Certify.Recheck.transitions > 0)

(* A wrong reduction mode at validation time is a header mismatch, not a
   crash: the certificate asserts closure of the *reduced* relation. *)
let test_mode_is_part_of_the_claim () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let _ = make_cert ~jobs:1 ~mode:Reduce.Mode.All dir in
  match validate ~mode:Reduce.Mode.None_ dir with
  | Ok _ -> Alcotest.fail "validated under the wrong reduction mode"
  | Error e ->
    Alcotest.(check bool) ("names the reduce field: " ^ e) true
      (contains ~sub:"\"reduce\"" e)

(* -- Determinism: both producers emit byte-identical tables ---------------- *)

let test_producers_agree_bytewise () =
  let da = fresh_dir () and db = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf da; rm_rf db) @@ fun () ->
  let ha, _ = make_cert ~jobs:1 ~mode:Reduce.Mode.All da in
  let hb, _ = make_cert ~jobs:4 ~mode:Reduce.Mode.All db in
  Alcotest.(check string) "table digests agree across producers"
    ha.Certify.Certificate.table_digest hb.Certify.Certificate.table_digest;
  let d = ok_or_fail "certdiff" (Certify.Diff.run da db) in
  Alcotest.(check bool) "certdiff sees identical certificates" true (Certify.Diff.identical d)

let test_certdiff_reports_differences () =
  let da = fresh_dir () and db = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf da; rm_rf db) @@ fun () ->
  let _ = make_cert ~jobs:1 ~mode:Reduce.Mode.All da in
  let _ = make_cert ~jobs:1 ~mode:Reduce.Mode.None_ db in
  let d = ok_or_fail "certdiff" (Certify.Diff.run da db) in
  Alcotest.(check bool) "different reductions are not identical" false
    (Certify.Diff.identical d);
  Alcotest.(check bool) "the reduce header delta is reported" true
    (List.exists (fun (f, _, _) -> f = "reduce") d.Certify.Diff.header_deltas);
  let hb = ok_or_fail "read_header" (Certify.Certificate.read_header db) in
  Certify.Certificate.write_header ~dir:db
    { hb with Certify.Certificate.scenario = Core.Scenario.to_json { sc with Core.Scenario.label = "relabelled" } };
  let d = ok_or_fail "certdiff" (Certify.Diff.run da db) in
  Alcotest.(check bool) "the scenario header delta is reported" true
    (List.exists (fun (f, _, _) -> f = "config.scenario") d.Certify.Diff.header_deltas)

(* -- Adversarial certificates: each tamper fails closed, naming the
      offender ------------------------------------------------------------- *)

let with_cert f () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let h, _ = make_cert ~jobs:1 ~mode:Reduce.Mode.All dir in
  f dir h

let expect_fail ~what ~subs dir =
  match validate ~mode:Reduce.Mode.All dir with
  | Ok _ -> Alcotest.fail (what ^ ": tampered certificate validated")
  | Error e ->
    List.iter
      (fun sub ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: diagnostic %S mentions %S" what e sub)
          true (contains ~sub e))
      subs

let test_bit_flip =
  with_cert @@ fun dir _h ->
  let path = Certify.Certificate.table_path dir in
  let bytes = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let i = Bytes.length bytes / 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  expect_fail ~what:"bit flip" ~subs:[ "table.seg"; "digest mismatch" ] dir

let test_truncated_table =
  with_cert @@ fun dir _h ->
  let path = Certify.Certificate.table_path dir in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub bytes 0 (String.length bytes / 2)));
  expect_fail ~what:"truncation" ~subs:[ "table.seg"; "digest mismatch" ] dir

let test_dropped_obligation =
  with_cert @@ fun dir h ->
  let weakened =
    {
      h with
      Certify.Certificate.obligations =
        List.filter (fun ob -> ob <> "closure") h.Certify.Certificate.obligations;
    }
  in
  Certify.Certificate.write_header ~dir weakened;
  expect_fail ~what:"dropped obligation"
    ~subs:[ "missing closure obligation"; "\"obligations\"" ]
    dir

let test_wrong_config_header =
  with_cert @@ fun dir h ->
  let other =
    Core.Config.hash { cfg with Core.Config.n_refs = cfg.Core.Config.n_refs + 1 }
  in
  Certify.Certificate.write_header ~dir { h with Certify.Certificate.config_hash = other };
  expect_fail ~what:"wrong config" ~subs:[ "\"config_hash\""; "different instance" ] dir

(* Dropping a table entry past the digest (rewriting table + header
   consistently) must still fail: the entry's parent regenerates it as a
   successor and the membership probe misses.  This is the case the
   digest alone cannot catch — the semantic closure check does. *)
let test_dropped_entry =
  with_cert @@ fun dir h ->
  let table = Certify.Certificate.table_path dir in
  let entries = Store.Segment.entries (Store.Segment.load table) in
  (* drop the deepest entry: never the root, and its parent's closure
     check must regenerate it *)
  let victim = ref 0 in
  Array.iteri
    (fun i e ->
      if
        Store.Tiered.meta32_depth e.Store.Segment.meta
        > Store.Tiered.meta32_depth entries.(!victim).Store.Segment.meta
      then victim := i)
    entries;
  let kept = Array.of_list (List.filteri (fun i _ -> i <> !victim) (Array.to_list entries)) in
  let max_depth =
    Array.fold_left
      (fun d e -> max d (Store.Tiered.meta32_depth e.Store.Segment.meta))
      0 kept
  in
  Sys.remove table;
  let (_ : Store.Segment.t) = Store.Segment.write ~path:table ~shard:0 ~seq:0 ~max_depth kept in
  Certify.Certificate.write_header ~dir
    {
      h with
      Certify.Certificate.states = Array.length kept;
      max_depth;
      table_digest = Certify.Certificate.digest_table dir;
    };
  expect_fail ~what:"dropped entry" ~subs:[ "closure miss" ] dir

(* The omission bound is derived from [states]: a header claiming any
   other value is refused naming the field. *)
let test_edited_omission_bound =
  with_cert @@ fun dir h ->
  Alcotest.(check (float 0.)) "bound recorded for the states"
    (Check.Fingerprint.omission_bound h.Certify.Certificate.states)
    (float_of_int (h.Certify.Certificate.states * h.Certify.Certificate.states) /. 0x1p64);
  let edited =
    match Certify.Certificate.header_to_json h with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) -> if k = "omission_bound" then (k, Obs.Json.Float 0.) else (k, v))
           fields)
    | _ -> Alcotest.fail "header is not an object"
  in
  Out_channel.with_open_bin (Certify.Certificate.header_path dir) (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string_pretty edited));
  expect_fail ~what:"edited omission bound" ~subs:[ "\"omission_bound\"" ] dir

(* -- The instance description: Config.of_describe and Scenario JSON ------- *)

let test_of_describe_round_trips () =
  let check what c =
    match Core.Config.of_describe (Core.Config.describe c) with
    | Ok c' -> Alcotest.(check bool) (what ^ " round-trips") true (c = c')
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  check "default" Core.Config.default;
  List.iter
    (fun v -> check ("variant " ^ v.Core.Variants.name) (v.Core.Variants.tweak Core.Config.default))
    Core.Variants.all;
  let base =
    { Core.Config.default with n_muts = 2; max_cycles = 2; max_mut_ops = 3; buf_bound = 2 }
  in
  List.iter
    (fun m -> check ("mutant " ^ m.Mutate.Campaign.name) (m.Mutate.Campaign.tweak base))
    (Mutate.Campaign.default_mutants ~muts:2 ())

let test_of_describe_rejects_malformed () =
  let good = Core.Config.describe Core.Config.default in
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then Alcotest.failf "%S not in %S" sub s
      else if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
      else go (i + 1)
    in
    go 0
  in
  let expect what input subs =
    match Core.Config.of_describe input with
    | Ok _ -> Alcotest.failf "%s: accepted %S" what input
    | Error e ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "%s: %S mentions %S" what e sub) true
            (contains ~sub e))
        subs
  in
  expect "missing key" (replace ~sub:"refs=3;" ~by:"" good) [ "\"refs\""; "missing" ];
  expect "duplicate key" (good ^ ";refs=3") [ "\"refs\""; "twice" ];
  expect "unknown key" (good ^ ";colour=1") [ "\"colour\""; "unknown" ];
  expect "bad int" (replace ~sub:"refs=3" ~by:"refs=three" good) [ "\"refs\""; "integer" ];
  expect "unknown mutation"
    (replace ~sub:"mutation=-" ~by:"mutation=flip-bits:gc" good)
    [ "\"mutation\""; "flip-bits:gc" ]

(* A campaign survivor certificate names its instance well enough for a
   validator to rebuild it from the header alone. *)
let test_survivor_certificate_rebuilds () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let m =
    List.find
      (fun m -> m.Mutate.Campaign.expected_equivalent && m.Mutate.Campaign.applies cfg)
      (Mutate.Campaign.default_mutants ())
  in
  let mode = Reduce.Mode.All in
  let cert_dir =
    match ok_or_fail "certify_survivor" (Result.map_error snd
      (Mutate.Campaign.certify_survivor ~dir ~reduce:mode ~scenarios:[ sc ] m)) with
    | [ (_, d, _) ] -> d
    | l -> Alcotest.failf "expected one certificate, got %d" (List.length l)
  in
  let h = ok_or_fail "read_header" (Certify.Certificate.read_header cert_dir) in
  let sc' = ok_or_fail "Scenario.of_json" (Core.Scenario.of_json h.Certify.Certificate.scenario) in
  Alcotest.(check bool) "rebuilt configuration is the mutated one" true
    (sc'.Core.Scenario.cfg = m.Mutate.Campaign.tweak cfg);
  let cfg' = sc'.Core.Scenario.cfg in
  let _, st =
    ok_or_fail "validate"
      (Certify.Recheck.validate
         ~reducer:(Core.Reduction.reducer cfg' mode)
         ~invariants:(Core.Scenario.invariants ~safety_only:h.Certify.Certificate.safety_only sc')
         ~config_hash:(Core.Config.hash cfg') ~dir:cert_dir
         (Core.Scenario.model sc').Core.Model.system)
  in
  Alcotest.(check int) "validated the header's states" h.Certify.Certificate.states
    st.Certify.Recheck.states

let test_old_format_rejected =
  with_cert @@ fun dir h ->
  List.iter
    (fun tag ->
      let old =
        match Certify.Certificate.header_to_json h with
        | Obs.Json.Obj fields ->
          Obs.Json.Obj
            (List.map
               (fun (k, v) -> if k = "format" then (k, Obs.Json.String tag) else (k, v))
               fields)
        | _ -> Alcotest.fail "header is not an object"
      in
      Out_channel.with_open_bin (Certify.Certificate.header_path dir) (fun oc ->
          Out_channel.output_string oc (Obs.Json.to_string_pretty old));
      match Certify.Certificate.read_header dir with
      | Ok _ -> Alcotest.failf "%s header accepted" tag
      | Error e ->
        List.iter
          (fun sub ->
            Alcotest.(check bool) (Printf.sprintf "%S mentions %S" e sub) true (contains ~sub e))
          [ "\"format\""; tag; Certify.Certificate.format_tag ])
    (* GCCERT001: flag echo instead of a scenario; GCCERT002: fingerprints
       of the pre-component scheme *)
    [ "GCCERT001"; "GCCERT002" ]

let suite =
  [
    Alcotest.test_case "round-trip (store dump, reduce all)" `Quick
      (round_trip ~jobs:1 ~mode:Reduce.Mode.All);
    Alcotest.test_case "round-trip (store dump, reduce none)" `Quick
      (round_trip ~jobs:1 ~mode:Reduce.Mode.None_);
    Alcotest.test_case "round-trip (jobs=4 sweep, reduce all)" `Quick
      (round_trip ~jobs:4 ~mode:Reduce.Mode.All);
    Alcotest.test_case "round-trip (jobs=4 sweep, reduce none)" `Quick
      (round_trip ~jobs:4 ~mode:Reduce.Mode.None_);
    Alcotest.test_case "reduce mode is part of the claim" `Quick test_mode_is_part_of_the_claim;
    Alcotest.test_case "producers emit byte-identical tables" `Quick
      test_producers_agree_bytewise;
    Alcotest.test_case "certdiff reports header + entry deltas" `Quick
      test_certdiff_reports_differences;
    Alcotest.test_case "tamper: bit-flipped table byte" `Quick test_bit_flip;
    Alcotest.test_case "tamper: truncated table" `Quick test_truncated_table;
    Alcotest.test_case "tamper: dropped obligation" `Quick test_dropped_obligation;
    Alcotest.test_case "tamper: wrong-config header" `Quick test_wrong_config_header;
    Alcotest.test_case "tamper: dropped entry behind a valid digest" `Quick test_dropped_entry;
    Alcotest.test_case "of_describe inverts describe" `Quick test_of_describe_round_trips;
    Alcotest.test_case "of_describe names malformed keys" `Quick
      test_of_describe_rejects_malformed;
    Alcotest.test_case "survivor certificate rebuilds from its header" `Quick
      test_survivor_certificate_rebuilds;
    Alcotest.test_case "GCCERT001 header rejected" `Quick test_old_format_rejected;
    Alcotest.test_case "tamper: edited omission bound" `Quick test_edited_omission_bound;
  ]
