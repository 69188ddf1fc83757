type snapshot = {
  seq : int;
  states : int;
  transitions : int;
  deadlocks : int;
  truncated : bool;
  elapsed_s : float;
  best : (int * int * int) option;
  frontier : (int * int) list array;
  covered : (int * string) list;
  store : Tiered.t;
}

let manifest_name = "MANIFEST.json"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let link_or_copy src dst =
  try Unix.link src dst
  with Unix.Unix_error _ ->
    let ic = open_in_bin src in
    let oc = open_out_bin dst in
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        close_out_noerr oc)
      (fun () ->
        let buf = Bytes.create 65536 in
        let rec go () =
          let n = input ic buf 0 (Bytes.length buf) in
          if n > 0 then begin
            output oc buf 0 n;
            go ()
          end
        in
        go ();
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc))

let fsync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

let t0_name shard = Printf.sprintf "t0-%02d.seg" shard

let snap_name seq = "snap-" ^ string_of_int seq

let write ~dir ~seq ~fingerprint_scheme ~config ~store ~states ~transitions ~deadlocks
    ~truncated ~elapsed_s ~best ~frontier ~covered =
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mkdirs dir;
  let tmp = Filename.concat dir "tmp-snap" in
  rm_rf tmp;
  Unix.mkdir tmp 0o755;
  let shards = ref [] in
  for shard = Tiered.n_shards - 1 downto 0 do
    let entries = Tiered.tier0_dump store ~shard in
    let t0 =
      if Array.length entries = 0 then Obs.Json.Null
      else begin
        let max_depth =
          Array.fold_left
            (fun acc (e : Segment.entry) -> max acc (Tiered.meta32_depth e.meta))
            0 entries
        in
        let name = t0_name shard in
        ignore
          (Segment.write ~path:(Filename.concat tmp name) ~shard ~seq:0 ~max_depth entries);
        Obs.Json.String name
      end
    in
    let segs = Tiered.segments_of store ~shard in
    let seg_names =
      List.map
        (fun seg ->
          let name = Filename.basename (Segment.path seg) in
          let dst = Filename.concat tmp name in
          if not (Sys.file_exists dst) then link_or_copy (Segment.path seg) dst;
          Obs.Json.String name)
        segs
    in
    let distinct, next_seq = Tiered.shard_meta store ~shard in
    shards :=
      Obs.Json.Obj
        [
          ("distinct", Obs.Json.Int distinct);
          ("next_seq", Obs.Json.Int next_seq);
          ("tier0", t0);
          ("segs", Obs.Json.List seg_names);
        ]
      :: !shards
  done;
  let pair_list l f = Obs.Json.List (List.map f l) in
  let state =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Int 1);
        ("seq", Obs.Json.Int seq);
        ("states", Obs.Json.Int states);
        ("transitions", Obs.Json.Int transitions);
        ("deadlocks", Obs.Json.Int deadlocks);
        ("truncated", Obs.Json.Bool truncated);
        ("elapsed_s", Obs.Json.Float elapsed_s);
        ( "best",
          match best with
          | None -> Obs.Json.Null
          | Some (depth, fp, inv) ->
            Obs.Json.Obj
              [ ("depth", Obs.Json.Int depth); ("fp", Obs.Json.Int fp); ("inv", Obs.Json.Int inv) ]
        );
        ( "frontier",
          Obs.Json.List
            (Array.to_list
               (Array.map
                  (fun tasks ->
                    pair_list tasks (fun (fp, d) ->
                        Obs.Json.List [ Obs.Json.Int fp; Obs.Json.Int d ]))
                  frontier)) );
        ( "covered",
          pair_list covered (fun (p, l) ->
              Obs.Json.List [ Obs.Json.Int p; Obs.Json.String l ]) );
        ("shards", Obs.Json.List !shards);
      ]
  in
  write_file (Filename.concat tmp "state.json") (Obs.Json.to_string state);
  fsync_path tmp;
  let final = Filename.concat dir (snap_name seq) in
  rm_rf final;
  Unix.rename tmp final;
  fsync_path dir;
  let manifest =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Int 1);
        ("latest", Obs.Json.String (snap_name seq));
        ("seq", Obs.Json.Int seq);
        ("fingerprint_scheme", Obs.Json.String fingerprint_scheme);
        ("config", config);
      ]
  in
  let mtmp = Filename.concat dir "MANIFEST.tmp" in
  write_file mtmp (Obs.Json.to_string manifest);
  Unix.rename mtmp (Filename.concat dir manifest_name);
  fsync_path dir;
  (* superseded snapshots: best-effort garbage collection *)
  Array.iter
    (fun e ->
      if e <> snap_name seq && String.length e > 5 && String.sub e 0 5 = "snap-" then
        rm_rf (Filename.concat dir e))
    (Sys.readdir dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let manifest dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists path) then Error ("no " ^ manifest_name ^ " in " ^ dir)
  else
    match Obs.Json.of_string (read_file path) with
    | Error e -> Error ("bad manifest: " ^ e)
    | Ok j -> (
      match
        (Option.bind (Obs.Json.member "seq" j) Obs.Json.to_int, Obs.Json.member "config" j)
      with
      | Some seq, Some config -> Ok (seq, config)
      | _ -> Error "manifest missing seq/config")

let load ?shard_cap ?mem_budget ?spill_dir ?merge_fanout ~fingerprint_scheme dir =
  let ( let* ) = Result.bind in
  let* _seq, _config = manifest dir in
  let path = Filename.concat dir manifest_name in
  let* j = Result.map_error (fun e -> "bad manifest: " ^ e) (Obs.Json.of_string (read_file path)) in
  (* the frontier and the seen-set are fingerprints: rebuilt under another
     scheme they would match no replayed state *)
  let* () =
    match Option.bind (Obs.Json.member "fingerprint_scheme" j) Obs.Json.to_string_opt with
    | Some s when s = fingerprint_scheme -> Ok ()
    | Some s ->
      Error
        (Printf.sprintf
           "manifest field \"fingerprint_scheme\" is %S, expected %S: the checkpoint's \
            fingerprints were computed by another scheme; re-run explore --checkpoint"
           s fingerprint_scheme)
    | None ->
      Error
        (Printf.sprintf
           "manifest has no \"fingerprint_scheme\": the checkpoint predates fingerprint \
            scheme %S and cannot be resumed; re-run explore --checkpoint"
           fingerprint_scheme)
  in
  let* latest =
    match Option.bind (Obs.Json.member "latest" j) Obs.Json.to_string_opt with
    | Some l -> Ok l
    | None -> Error "manifest missing latest"
  in
  let sdir = Filename.concat dir latest in
  let spath = Filename.concat sdir "state.json" in
  if not (Sys.file_exists spath) then Error ("snapshot " ^ latest ^ " has no state.json")
  else
    let* st = Result.map_error (fun e -> "bad state.json: " ^ e) (Obs.Json.of_string (read_file spath)) in
    let int_field name =
      match Option.bind (Obs.Json.member name st) Obs.Json.to_int with
      | Some v -> Ok v
      | None -> Error ("state.json missing " ^ name)
    in
    let* seq = int_field "seq" in
    let* states = int_field "states" in
    let* transitions = int_field "transitions" in
    let* deadlocks = int_field "deadlocks" in
    let truncated =
      Option.value ~default:false (Option.bind (Obs.Json.member "truncated" st) Obs.Json.to_bool)
    in
    let elapsed_s =
      Option.value ~default:0. (Option.bind (Obs.Json.member "elapsed_s" st) Obs.Json.to_float)
    in
    let best =
      match Obs.Json.member "best" st with
      | Some (Obs.Json.Obj _ as b) -> (
        match
          ( Option.bind (Obs.Json.member "depth" b) Obs.Json.to_int,
            Option.bind (Obs.Json.member "fp" b) Obs.Json.to_int,
            Option.bind (Obs.Json.member "inv" b) Obs.Json.to_int )
        with
        | Some d, Some fp, Some i -> Some (d, fp, i)
        | _ -> None)
      | _ -> None
    in
    let* frontier =
      match Option.bind (Obs.Json.member "frontier" st) Obs.Json.to_list with
      | None -> Error "state.json missing frontier"
      | Some lists ->
        let parse_tasks l =
          match Obs.Json.to_list l with
          | None -> []
          | Some tasks ->
            List.filter_map
              (fun tj ->
                match Obs.Json.to_list tj with
                | Some [ fpj; dj ] -> (
                  match (Obs.Json.to_int fpj, Obs.Json.to_int dj) with
                  | Some fp, Some d -> Some (fp, d)
                  | _ -> None)
                | _ -> None)
              tasks
        in
        Ok (Array.of_list (List.map parse_tasks lists))
    in
    let covered =
      match Option.bind (Obs.Json.member "covered" st) Obs.Json.to_list with
      | None -> []
      | Some pairs ->
        List.filter_map
          (fun pj ->
            match Obs.Json.to_list pj with
            | Some [ p; l ] -> (
              match (Obs.Json.to_int p, Obs.Json.to_string_opt l) with
              | Some p, Some l -> Some (p, l)
              | _ -> None)
            | _ -> None)
          pairs
    in
    let* shard_list =
      match Option.bind (Obs.Json.member "shards" st) Obs.Json.to_list with
      | Some l when List.length l = Tiered.n_shards -> Ok l
      | Some l ->
        Error
          (Printf.sprintf "state.json has %d shards, expected %d" (List.length l)
             Tiered.n_shards)
      | None -> Error "state.json missing shards"
    in
    let store = Tiered.create ?shard_cap ?mem_budget ?spill_dir ?merge_fanout () in
    let has_segs =
      List.exists
        (fun sh ->
          match Option.bind (Obs.Json.member "segs" sh) Obs.Json.to_list with
          | Some (_ :: _) -> true
          | _ -> false)
        shard_list
    in
    let live_dir = if has_segs then Some (Tiered.ensure_spill_dir store) else None in
    try
      List.iteri
        (fun shard sh ->
          let distinct =
            Option.value ~default:0 (Option.bind (Obs.Json.member "distinct" sh) Obs.Json.to_int)
          in
          let next_seq =
            Option.value ~default:0 (Option.bind (Obs.Json.member "next_seq" sh) Obs.Json.to_int)
          in
          let tier0 =
            match Option.bind (Obs.Json.member "tier0" sh) Obs.Json.to_string_opt with
            | None -> [||]
            | Some name -> Segment.entries (Segment.load (Filename.concat sdir name))
          in
          let segs =
            match Option.bind (Obs.Json.member "segs" sh) Obs.Json.to_list with
            | None -> []
            | Some names ->
              List.filter_map
                (fun nj ->
                  Option.map
                    (fun name ->
                      let live =
                        match live_dir with
                        | Some d ->
                          let dst = Filename.concat d name in
                          if not (Sys.file_exists dst) then
                            link_or_copy (Filename.concat sdir name) dst;
                          dst
                        | None -> Filename.concat sdir name
                      in
                      Segment.load live)
                    (Obs.Json.to_string_opt nj))
                names
          in
          Tiered.restore_shard store ~shard ~distinct ~next_seq ~tier0 ~segs)
        shard_list;
      Ok
        {
          seq;
          states;
          transitions;
          deadlocks;
          truncated;
          elapsed_s;
          best;
          frontier;
          covered;
          store;
        }
    with
    | Sys_error e -> Error ("snapshot load failed: " ^ e)
    | Failure e -> Error ("snapshot load failed: " ^ e)
