(* Tests for the tiered state store (lib/store): the varint codec's
   totality on the 63-bit range, Bloom-filter soundness, segment
   round-trips, spill equivalence against the all-RAM checker, merges
   under concurrent inserts, and checkpoint/resume — including recovery
   from a crash that left half-written snapshot debris behind. *)

open Cimp

type com = (int, int, int) Com.t

let proc c data = Com.make [ c ] data

let tmp_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Fmt.str "test-store-%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

(* -- codec ------------------------------------------------------------------- *)

let test_varint_roundtrip () =
  let cases =
    [
      0; 1; 127; 128; 300; 0x3FFF_FFFF; max_int; min_int; -1; -42;
      1 lsl 62; (1 lsl 62) lor 12345; min_int + 1;
    ]
  in
  let b = Buffer.create 64 in
  List.iter (fun v -> Store.Codec.add_varint b v) cases;
  let bytes = Buffer.to_bytes b in
  let pos = ref 0 in
  List.iter
    (fun v ->
      let got, pos' = Store.Codec.get_varint bytes !pos in
      Alcotest.(check int) (Fmt.str "varint %d" v) v got;
      Alcotest.(check bool)
        (Fmt.str "bounded encoding of %d" v)
        true
        (pos' - !pos <= Store.Codec.max_varint_bytes);
      pos := pos')
    cases;
  Alcotest.(check int) "stream fully consumed" (Bytes.length bytes) !pos

(* -- bloom ------------------------------------------------------------------- *)

let test_bloom_no_false_negatives () =
  let n = 5_000 in
  let f = Store.Bloom.create ~expected:n in
  let key i = (i * 2654435761) lxor (i lsl 31) in
  for i = 1 to n do
    Store.Bloom.add f (key i)
  done;
  for i = 1 to n do
    if not (Store.Bloom.mem f (key i)) then
      Alcotest.failf "false negative for key %d" (key i)
  done;
  (* false positives exist but must be rare: probe n fresh keys *)
  let fp = ref 0 in
  for i = n + 1 to 2 * n do
    if Store.Bloom.mem f (key i) then incr fp
  done;
  Alcotest.(check bool)
    (Fmt.str "false-positive rate %.2f%% < 5%%" (100. *. float_of_int !fp /. float_of_int n))
    true
    (float_of_int !fp /. float_of_int n < 0.05);
  (* serialization round-trip preserves answers *)
  let b = Buffer.create 1024 in
  Store.Bloom.write b f;
  let f', pos = Store.Bloom.read (Buffer.to_bytes b) 0 in
  Alcotest.(check int) "self-delimiting" (Buffer.length b) pos;
  for i = 1 to n do
    if not (Store.Bloom.mem f' (key i)) then
      Alcotest.failf "false negative after round-trip for key %d" (key i)
  done

(* -- segment ----------------------------------------------------------------- *)

let test_segment_roundtrip () =
  let dir = tmp_dir "seg" in
  let n = 2_000 in
  (* adversarial fingerprints: dense positives, negatives (rendezvous
     kind bit), and extremes — sorted by plain int order as the store
     dumps them *)
  let fps =
    Array.init n (fun i ->
        match i mod 4 with
        | 0 -> i + 1
        | 1 -> -(i * 7) - 1
        | 2 -> (i * 2654435761) lxor (1 lsl 55)
        | _ -> min_int + (i * 13) + 1)
    |> Array.to_list
    |> List.sort_uniq compare
    |> Array.of_list
  in
  let entries =
    Array.map
      (fun fp ->
        {
          Store.Segment.fp;
          parent = fp lxor 0x55;
          event = (if fp land 1 = 0 then -fp else fp lsr 3);
          meta = fp land 0x7FFF_FFFF;
        })
      fps
  in
  let path = Filename.concat dir "t.seg" in
  let seg = Store.Segment.write ~path ~shard:3 ~seq:7 ~max_depth:42 entries in
  Alcotest.(check int) "length" (Array.length entries) (Store.Segment.length seg);
  (* reload from disk and probe every entry through the Bloom + index path *)
  let seg = Store.Segment.load path in
  Alcotest.(check int) "shard" 3 (Store.Segment.shard seg);
  Alcotest.(check int) "seq" 7 (Store.Segment.seq seg);
  Alcotest.(check int) "max_depth" 42 (Store.Segment.max_depth seg);
  Array.iter
    (fun (e : Store.Segment.entry) ->
      Alcotest.(check bool) "bloom sees it" true (Store.Segment.maybe seg e.Store.Segment.fp);
      match Store.Segment.find seg e.Store.Segment.fp with
      | None -> Alcotest.failf "lost fingerprint %d" e.Store.Segment.fp
      | Some got ->
        Alcotest.(check int) "parent" e.Store.Segment.parent got.Store.Segment.parent;
        Alcotest.(check int) "event" e.Store.Segment.event got.Store.Segment.event;
        Alcotest.(check int) "meta" e.Store.Segment.meta got.Store.Segment.meta)
    entries;
  (* absent keys answer None (Bloom may pass, the block scan must not) *)
  let present = Hashtbl.create 256 in
  Array.iter (fun (e : Store.Segment.entry) -> Hashtbl.replace present e.Store.Segment.fp ()) entries;
  for i = 1 to 1_000 do
    let fp = (i * 48271) lxor (1 lsl 40) in
    if not (Hashtbl.mem present fp) then
      Alcotest.(check bool)
        (Fmt.str "absent %d stays absent" fp)
        true
        (Store.Segment.find seg fp = None)
  done;
  (* iter yields the entries back in order *)
  let seen = ref [] in
  Store.Segment.iter seg (fun e -> seen := e.Store.Segment.fp :: !seen);
  Alcotest.(check (list int))
    "iter in fingerprint order"
    (Array.to_list (Array.map (fun (e : Store.Segment.entry) -> e.Store.Segment.fp) entries))
    (List.rev !seen);
  rm_rf dir

(* -- tiered store under concurrent inserts ----------------------------------- *)

(* Hammer one logical key-space from several domains with a budget small
   enough to force repeated freezes and merges mid-insert, then verify
   every key is present exactly once with its best depth. *)
let test_merge_under_concurrent_inserts () =
  let dir = tmp_dir "merge" in
  let seen = Store.Tiered.create ~shard_cap:64 ~mem_budget:(64 * Store.Tiered.entry_bytes * Store.Tiered.n_shards) ~spill_dir:dir ~merge_fanout:3 () in
  let n_doms = 4 and per_dom = 4_000 in
  let key d i = ((i * 2654435761) lxor (d lsl 58)) lor 1 in
  let doms =
    Array.init n_doms (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_dom do
              (* two adds per key: depth 2i then i — the second must improve *)
              ignore (Store.Tiered.add seen (key d i) ~parent:1 ~event:d ~depth:(2 * i));
              match Store.Tiered.add seen (key d i) ~parent:1 ~event:d ~depth:i with
              | Store.Tiered.Improved _ | Store.Tiered.Stale -> ()
              | Store.Tiered.Fresh -> Alcotest.failf "duplicate fresh for key %d" (key d i)
            done))
  in
  Array.iter Domain.join doms;
  Alcotest.(check int) "distinct count" (n_doms * per_dom) (Store.Tiered.count seen);
  let st = Store.Tiered.stats seen in
  Alcotest.(check bool) "spills happened" true (st.Store.Tiered.spills > 0);
  Alcotest.(check bool) "merges happened" true (st.Store.Tiered.merges > 0);
  for d = 0 to n_doms - 1 do
    for i = 1 to per_dom do
      match Store.Tiered.depth_of seen (key d i) with
      | None -> Alcotest.failf "lost key %d after spill/merge" (key d i)
      | Some dep ->
        if dep <> i then Alcotest.failf "key %d depth %d, expected %d" (key d i) dep i
    done
  done;
  rm_rf dir

(* -- spill equivalence against the all-RAM checker ---------------------------- *)

(* Two interleaving counters with a violation: enough states to spill
   heavily under a tiny budget, a violation whose shortest trace the
   spilled run must still find.  The store keeps membership exact, so
   verdict, invariant, counterexample length and state count must all
   match the all-RAM run ([depth] deliberately unchecked: a spilled
   entry's stale deep copy may overstate it). *)
let two_counters () =
  let p : com =
    Com.While (("w" : Cimp.Label.t), (fun s -> s < 40), Com.Local_op ("step", fun s -> [ s + 1; s + 2 ]))
  in
  System.make [| "p"; "q" |] [| proc p 0; proc p 0 |]

let bad_sum sys = (System.proc sys 0).Com.data + (System.proc sys 1).Com.data <> 51

let signature (o : _ Check.Explore.outcome) =
  ( (match o.Check.Explore.violation with
    | None -> ("clean", 0)
    | Some tr -> (tr.Check.Trace.broken, Check.Trace.length tr)),
    o.Check.Explore.states,
    o.Check.Explore.transitions )

let test_forced_spill_equivalence () =
  let invariants = [ ("not-51", bad_sum) ] in
  let all_ram = Check.Explore.run ~normal_form:false ~invariants (two_counters ()) in
  let base, _, _ = signature all_ram in
  List.iter
    (fun jobs ->
      let dir = tmp_dir (Fmt.str "spill%d" jobs) in
      let o =
        Check.Explore.run ~jobs ~normal_form:false ~mem_budget:(48 * 1024)
          ~spill_dir:dir ~invariants (two_counters ())
      in
      (* on a violating instance the states-at-stop count is traversal-order
         dependent; the deterministic contract is invariant + shortest-CE
         length (exact counts are pinned on the clean instance below) *)
      let v, _, _ = signature o in
      Alcotest.(check (pair string int))
        (Fmt.str "spilled run matches all-RAM at jobs=%d" jobs)
        base v;
      rm_rf dir)
    [ 1; 4 ];
  (* same equivalence on a clean (violation-free) instance, where state
     counts are exactly comparable, plus proof that most states spilled *)
  let p : com =
    Com.While (("w" : Cimp.Label.t), (fun s -> s < 60), Com.Local_op ("step", fun s -> [ s + 1; s + 3 ]))
  in
  let sys () = System.make [| "p"; "q" |] [| proc p 0; proc p 0 |] in
  let seq = Check.Explore.run ~normal_form:false ~invariants:[] (sys ()) in
  let dir = tmp_dir "spill-clean" in
  let o =
    Check.Explore.run ~jobs:2 ~normal_form:false
      ~mem_budget:(Store.Tiered.n_shards * 20 * Store.Tiered.entry_bytes) ~spill_dir:dir
      ~invariants:[] (sys ())
  in
  Alcotest.(check int) "clean states" seq.Check.Explore.states o.Check.Explore.states;
  Alcotest.(check int) "clean transitions" seq.Check.Explore.transitions o.Check.Explore.transitions;
  Alcotest.(check int) "clean deadlocks" seq.Check.Explore.deadlocks o.Check.Explore.deadlocks;
  Alcotest.(check bool) "clean verdict" true (o.Check.Explore.violation = None);
  rm_rf dir

(* -- checkpoint / resume ------------------------------------------------------ *)

(* Checkpoint a run every few hundred states, load the snapshot back,
   resume, and pin the resumed outcome to the uninterrupted one.  The
   final snapshot is written post-quiescence, so loading it and resuming
   exercises the full store-restore path even without a kill. *)
let test_checkpoint_resume_equivalence () =
  let invariants = [ ("not-51", bad_sum) ] in
  let uninterrupted =
    Check.Explore.run ~jobs:2 ~normal_form:false ~invariants (two_counters ())
  in
  let dir = tmp_dir "ckpt" in
  let o =
    Check.Explore.run ~jobs:2 ~normal_form:false ~checkpoint:(dir, 300) ~invariants
      (two_counters ())
  in
  (let (v, _, _) = signature uninterrupted and (v', _, _) = signature o in
   Alcotest.(check (pair string int)) "checkpointed run unaffected" v v');
  (match Store.Checkpoint.manifest dir with
  | Error msg -> Alcotest.failf "manifest: %s" msg
  | Ok (seq, _) -> Alcotest.(check bool) "snapshots were written" true (seq >= 1));
  (match Store.Checkpoint.load ~fingerprint_scheme:Check.Fingerprint.scheme dir with
  | Error msg -> Alcotest.failf "load: %s" msg
  | Ok snap ->
    let r =
      Check.Explore.run ~jobs:2 ~normal_form:false ~resume:snap ~invariants (two_counters ())
    in
    let (v, _, _) = signature uninterrupted and (v', _, _) = signature r in
    Alcotest.(check (pair string int)) "resumed verdict + CE length" v v');
  rm_rf dir

(* A mid-run snapshot (not the final one): checkpoint with a tiny
   interval, grab the first snapshot as soon as the manifest appears by
   racing the run from another domain, then resume from that strictly
   partial snapshot and require the uninterrupted verdict.  This is the
   in-process analogue of the CI SIGKILL smoke. *)
let test_resume_from_mid_run_snapshot () =
  let uninterrupted =
    Check.Explore.run ~normal_form:false ~invariants:[] (two_counters ())
  in
  let dir = tmp_dir "midrun" in
  let snap_holder = ref None in
  let grabber =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 30. in
        let rec poll () =
          if Unix.gettimeofday () > deadline then ()
          else
            match Store.Checkpoint.manifest dir with
            | Ok (seq, _) when seq >= 1 -> (
              match Store.Checkpoint.load ~fingerprint_scheme:Check.Fingerprint.scheme dir with
              | Ok snap when snap.Store.Checkpoint.states > 0 -> snap_holder := Some snap
              | _ -> poll ())
            | _ ->
              Unix.sleepf 0.002;
              poll ()
        in
        poll ())
  in
  let full =
    Check.Explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 200) ~invariants:[]
      (two_counters ())
  in
  Domain.join grabber;
  (match !snap_holder with
  | None -> Alcotest.fail "no snapshot captured while the run was live"
  | Some snap ->
    let r =
      Check.Explore.run ~jobs:2 ~normal_form:false ~resume:snap ~invariants:[]
        (two_counters ())
    in
    Alcotest.(check int)
      (Fmt.str "resume from snapshot %d (%d states) completes the space"
         snap.Store.Checkpoint.seq snap.Store.Checkpoint.states)
      uninterrupted.Check.Explore.states r.Check.Explore.states;
    Alcotest.(check int) "transitions" uninterrupted.Check.Explore.transitions
      r.Check.Explore.transitions;
    Alcotest.(check bool) "clean" true (r.Check.Explore.violation = None));
  Alcotest.(check int) "checkpointed run itself is right" uninterrupted.Check.Explore.states
    full.Check.Explore.states;
  rm_rf dir

(* Crash recovery: a half-written snapshot (tmp-snap debris, torn
   MANIFEST.tmp) must be invisible — load still returns the last
   complete snapshot, and the next checkpointed run garbage-collects the
   debris. *)
let test_crash_mid_checkpoint_recovery () =
  let dir = tmp_dir "crash" in
  let o =
    Check.Explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 500) ~invariants:[]
      (two_counters ())
  in
  (* simulate a crash mid-write: partial snapshot dir + torn manifest *)
  let tmp = Filename.concat dir "tmp-snap" in
  Unix.mkdir tmp 0o755;
  Out_channel.with_open_bin (Filename.concat tmp "state.json") (fun oc ->
      Out_channel.output_string oc "{\"schema\":1,\"truncat");
  Out_channel.with_open_bin (Filename.concat dir "MANIFEST.tmp") (fun oc ->
      Out_channel.output_string oc "{\"schema\":1,\"latest\":\"snap-99");
  (match Store.Checkpoint.load ~fingerprint_scheme:Check.Fingerprint.scheme dir with
  | Error msg -> Alcotest.failf "load after simulated crash: %s" msg
  | Ok snap ->
    Alcotest.(check int) "last complete snapshot survives" o.Check.Explore.states
      snap.Store.Checkpoint.states;
    (* resume completes instantly (final snapshot: empty frontier) with
       the identical verdict *)
    let r =
      Check.Explore.run ~jobs:1 ~normal_form:false ~resume:snap ~invariants:[]
        (two_counters ())
    in
    Alcotest.(check int) "states preserved" o.Check.Explore.states r.Check.Explore.states);
  (* the next write sweeps the debris *)
  let dir2_run =
    Check.Explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 500) ~invariants:[]
      (two_counters ())
  in
  ignore dir2_run;
  Alcotest.(check bool) "tmp-snap swept" false (Sys.file_exists tmp);
  rm_rf dir

(* Resuming against the wrong model must be refused, not silently
   diverge. *)
let test_resume_model_mismatch_refused () =
  let dir = tmp_dir "mismatch" in
  ignore
    (Check.Explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 100) ~invariants:[]
       (two_counters ()));
  (match Store.Checkpoint.load ~fingerprint_scheme:Check.Fingerprint.scheme dir with
  | Error msg -> Alcotest.failf "load: %s" msg
  | Ok snap ->
    let other =
      let p : com = Com.Local_op ("p", fun s -> [ s + 1 ]) in
      System.make [| "solo" |] [| proc p 100 |]
    in
    Alcotest.check_raises "mismatched model refused"
      (Invalid_argument "Explore.run: checkpoint does not match this model configuration")
      (fun () ->
        ignore (Check.Explore.run ~jobs:1 ~normal_form:false ~resume:snap ~invariants:[] other)));
  rm_rf dir

(* A checkpoint written under another fingerprint scheme (or before
   schemes were recorded) must be refused by name: its frontier and
   seen-set fingerprints would match no replayed state. *)
let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_resume_scheme_mismatch_refused () =
  let dir = tmp_dir "scheme" in
  ignore
    (Check.Explore.run ~jobs:1 ~normal_form:false ~checkpoint:(dir, 100) ~invariants:[]
       (two_counters ()));
  let path = Filename.concat dir "MANIFEST.json" in
  let manifest =
    match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok (Obs.Json.Obj fields) -> fields
    | _ -> Alcotest.fail "MANIFEST.json is not a JSON object"
  in
  Alcotest.(check (option string)) "manifest records the scheme"
    (Some Check.Fingerprint.scheme)
    (Option.bind (List.assoc_opt "fingerprint_scheme" manifest) Obs.Json.to_string_opt);
  let refused what fields expect =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (Obs.Json.to_string (Obs.Json.Obj fields)));
    match Store.Checkpoint.load ~fingerprint_scheme:Check.Fingerprint.scheme dir with
    | Ok _ -> Alcotest.failf "%s: checkpoint accepted" what
    | Error e ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "%s: %S mentions %S" what e sub) true
            (contains ~sub e))
        expect
  in
  refused "edited tag"
    (List.map
       (fun (k, v) ->
         if k = "fingerprint_scheme" then (k, Obs.Json.String "components-0") else (k, v))
       manifest)
    [ "\"fingerprint_scheme\""; "components-0"; Check.Fingerprint.scheme ];
  refused "missing tag"
    (List.filter (fun (k, _) -> k <> "fingerprint_scheme") manifest)
    [ "\"fingerprint_scheme\""; Check.Fingerprint.scheme ];
  rm_rf dir

let suite =
  [
    Alcotest.test_case "varint round-trip over the 63-bit range" `Quick test_varint_roundtrip;
    Alcotest.test_case "bloom: no false negatives, rare positives" `Quick
      test_bloom_no_false_negatives;
    Alcotest.test_case "segment write -> bloom -> lookup round-trip" `Quick test_segment_roundtrip;
    Alcotest.test_case "merge correctness under concurrent inserts" `Slow
      test_merge_under_concurrent_inserts;
    Alcotest.test_case "forced-spill equivalence vs all-RAM" `Slow test_forced_spill_equivalence;
    Alcotest.test_case "checkpoint -> load -> resume equivalence" `Slow
      test_checkpoint_resume_equivalence;
    Alcotest.test_case "resume from a mid-run snapshot" `Slow test_resume_from_mid_run_snapshot;
    Alcotest.test_case "crash mid-checkpoint leaves last snapshot loadable" `Quick
      test_crash_mid_checkpoint_recovery;
    Alcotest.test_case "resume against the wrong model is refused" `Quick
      test_resume_model_mismatch_refused;
    Alcotest.test_case "resume under another fingerprint scheme is refused" `Quick
      test_resume_scheme_mismatch_refused;
  ]
