(* Certificate emission.

   The table is always the explorer's tiered seen-set, dumped by
   [of_store] (tier-0 shards plus any spilled segments, min-depth /
   or-expanded merged per fingerprint) after a jobs = 1 run: that run is
   a FIFO BFS, so its depth stamps are BFS distances and the dump already
   is the canonical table.  A caller whose own run was scheduled across
   several workers re-derives the table with [derive], the same engine at
   jobs = 1: the parallel visited class set can differ across schedules
   at the symmetry reduction's local-automorphism boundary, and the
   certificate must be the canonical quotient table the validator will
   reconstruct, byte-identical whatever [--jobs] produced it.

   [write] then emits table.seg (one globally sorted segment) and
   CERT.json binding the configuration hash, reduction mode, invariant
   catalogue, obligations and the table digest.  The header is written
   last so a crash mid-write never leaves a certificate that parses: no
   CERT.json, no certificate. *)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let of_store store =
  let tbl = Hashtbl.create (max 1024 (Store.Tiered.count store)) in
  let add (e : Store.Segment.entry) =
    let d = Store.Tiered.meta32_depth e.meta in
    let v = Store.Tiered.meta32_violation e.meta in
    let x = Store.Tiered.meta32_expanded e.meta in
    match Hashtbl.find_opt tbl e.fp with
    | None -> Hashtbl.replace tbl e.fp (d, v, x)
    | Some (d0, v0, x0) -> Hashtbl.replace tbl e.fp (min d d0, max v v0, x || x0)
  in
  for shard = 0 to Store.Tiered.n_shards - 1 do
    Array.iter add (Store.Tiered.tier0_dump store ~shard);
    List.iter (fun seg -> Store.Segment.iter seg add) (Store.Tiered.segments_of store ~shard)
  done;
  let bad = ref None in
  let acc = ref [] in
  Hashtbl.iter
    (fun fp (d, v, x) ->
      if v >= 0 && !bad = None then
        bad := Some (Printf.sprintf "state 0x%x records a violation verdict" (fp land max_int));
      if (not x) && !bad = None then
        bad :=
          Some
            (Printf.sprintf "state 0x%x was never expanded — the run is truncated"
               (fp land max_int));
      acc :=
        { Store.Segment.fp; parent = 0; event = 0; meta = Store.Tiered.meta32_make ~depth:d ~violation:v }
        :: !acc)
    tbl;
  match !bad with
  | Some msg -> Error msg
  | None ->
    let entries = Array.of_list !acc in
    Array.sort (fun a b -> compare a.Store.Segment.fp b.Store.Segment.fp) entries;
    let max_depth =
      Array.fold_left
        (fun m e -> max m (Store.Tiered.meta32_depth e.Store.Segment.meta))
        0 entries
    in
    Ok (entries, max_depth)

let derive ~reducer ~invariants initial =
  let table = ref (Error "internal error: seen-set dump not captured") in
  ignore
    (Check.Explore.run ~jobs:1 ~max_states:max_int ?reducer
       ~on_store:(fun store -> table := of_store store)
       ~invariants initial);
  !table

let write ~dir ~config_hash ~reduce ~invariant_names ~scenario ~safety_only ~max_depth entries =
  let n = Array.length entries in
  if n = 0 then Error "empty table: nothing to certify"
  else begin
    (* the root is the unique depth-0 entry of a single-root BFS *)
    let roots =
      Array.to_list entries
      |> List.filter (fun e -> Store.Tiered.meta32_depth e.Store.Segment.meta = 0)
    in
    match roots with
    | [ root ] ->
      mkdirs dir;
      ignore
        (Store.Segment.write ~path:(Certificate.table_path dir) ~shard:0 ~seq:0 ~max_depth
           entries);
      let h =
        {
          Certificate.config_hash;
          reduce;
          invariants = invariant_names;
          obligations = Certificate.required_obligations;
          root_fp = root.Store.Segment.fp;
          states = n;
          max_depth;
          table_digest = Certificate.digest_table dir;
          scenario;
          safety_only;
        }
      in
      Certificate.write_header ~dir h;
      Ok h
    | roots -> Error (Printf.sprintf "%d depth-0 entries in the table, expected exactly 1" (List.length roots))
  end
