(* The certificate container format.  See docs/CERTIFICATES.md (generated
   by lib/mutate/doc_gen) for the normative spec; this module is its
   implementation.

   A certificate is a directory of two files:

     CERT.json   the header: format tag, configuration binding
                 (config_hash + the instance: scenario and invariant
                 selection, no run parameters), reduction
                 mode, the invariant catalogue in evaluation order, the
                 closure obligations the validator must discharge, the
                 root fingerprint, entry counts, the hash-compaction
                 omission bound, and an MD5 digest of the table file.
     table.seg   the table: one segment in lib/store's delta-compressed
                 "GCSEG001" format, all entries globally sorted by
                 fingerprint, parent and event zeroed, meta packed as
                 depth | verdict | expanded in the store's 32-bit segment
                 layout.

   The digest catches accidental corruption cheaply; it is NOT a
   signature and carries no trust.  Soundness never rests on it: the
   validator (Recheck) re-derives every claim semantically, so a
   consistently tampered certificate still fails closure, depth or
   verdict revalidation.  DESIGN.md records the argument. *)

let format_tag = "GCCERT003"
let header_file = "CERT.json"
let table_file = "table.seg"
let header_path dir = Filename.concat dir header_file
let table_path dir = Filename.concat dir table_file

(* The obligations a validator must discharge.  They are named in the
   header so a certificate states what it claims; Recheck refuses a
   header that omits any of them (an omitted obligation would otherwise
   silently weaken the claim a consumer believes was checked). *)
let obligation_root = "root"
let obligation_closure = "closure"
let obligation_depths = "depths"
let obligation_verdicts = "verdicts"

let required_obligations =
  [ obligation_root; obligation_closure; obligation_depths; obligation_verdicts ]

type header = {
  config_hash : string;  (* Config.hash of the certified instance *)
  reduce : string;  (* reduction mode: "none" | "sym" | "por" | "all" *)
  invariants : string list;  (* catalogue in evaluation order *)
  obligations : string list;  (* must cover [required_obligations] *)
  root_fp : int;  (* fingerprint of the canonical initial state *)
  states : int;  (* table entry count *)
  max_depth : int;  (* largest depth stamp in the table *)
  table_digest : string;  (* MD5 (hex) of table.seg *)
  scenario : Obs.Json.t;  (* Core.Scenario.to_json of the instance *)
  safety_only : bool;  (* invariant selection: safety subset or full catalogue *)
}

let header_to_json h =
  let open Obs.Json in
  Obj
    [
      ("format", String format_tag);
      ("config_hash", String h.config_hash);
      ("reduce", String h.reduce);
      ("invariants", List (List.map (fun s -> String s) h.invariants));
      ("obligations", List (List.map (fun s -> String s) h.obligations));
      ("root_fp", Int h.root_fp);
      ("states", Int h.states);
      ("omission_bound", Float (Check.Fingerprint.omission_bound h.states));
      ("max_depth", Int h.max_depth);
      ("table_digest", String h.table_digest);
      ("config", Obj [ ("scenario", h.scenario); ("safety_only", Bool h.safety_only) ]);
    ]

let header_of_json json =
  let open Obs.Json in
  let config = Option.value (member "config" json) ~default:Null in
  (* [path] is [within]'s own place in the header, for the diagnostic *)
  let field within path name conv what =
    Option.to_result
      ~none:(Printf.sprintf "header field %S missing or not %s" (path ^ name) what)
      (Option.bind (member name within) conv)
  in
  let str name = field json "" name to_string_opt "a string" in
  let int name = field json "" name to_int "an integer" in
  let str_list name =
    field json "" name (fun l -> Option.map (List.filter_map to_string_opt) (to_list l)) "a list"
  in
  let ( let* ) = Result.bind in
  (* the tag first: any other format's remaining fields mean nothing here *)
  let* () =
    Result.bind (str "format") (fun format ->
        if format = format_tag then Ok ()
        else
          Error
            (Printf.sprintf "header field \"format\" is %S, expected %S (another format)"
               format format_tag))
  in
  let* config_hash = str "config_hash" in
  let* reduce = str "reduce" in
  let* invariants = str_list "invariants" in
  let* obligations = str_list "obligations" in
  let* root_fp = int "root_fp" in
  let* states = int "states" in
  (* derived from [states]; a header that disagrees was edited by hand *)
  let* () =
    let expected = Check.Fingerprint.omission_bound states in
    Result.bind (field json "" "omission_bound" to_float "a number") (fun b ->
        if b = expected then Ok ()
        else
          Error
            (Printf.sprintf "header field \"omission_bound\" is %g, expected %g for %d states" b
               expected states))
  in
  let* max_depth = int "max_depth" in
  let* table_digest = str "table_digest" in
  let* scenario =
    field config "config." "scenario" (function Obj _ as s -> Some s | _ -> None) "an object"
  in
  let* safety_only = field config "config." "safety_only" to_bool "a boolean" in
  Ok
    {
      config_hash;
      reduce;
      invariants;
      obligations;
      root_fp;
      states;
      max_depth;
      table_digest;
      scenario;
      safety_only;
    }

let write_header ~dir h =
  let path = header_path dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Obs.Json.to_string_pretty (header_to_json h));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let read_header dir =
  let path = header_path dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no certificate header (%s missing)" dir header_file)
  else
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Obs.Json.of_string s with
    | Error e -> Error (Printf.sprintf "%s: unparsable header: %s" header_file e)
    | Ok json -> Result.map_error (Printf.sprintf "%s: %s" header_file) (header_of_json json)

let digest_table dir = Digest.to_hex (Digest.file (table_path dir))

(* Load the table, digest-checked first so a bit flip or truncation is
   reported as corruption (naming table.seg) rather than as a spurious
   semantic failure from the decoder. *)
let load_table ~expected_digest dir =
  let path = table_path dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no certificate table (%s missing)" dir table_file)
  else
    let actual = digest_table dir in
    if actual <> expected_digest then
      Error
        (Printf.sprintf
           "%s: digest mismatch — header field \"table_digest\" says %s, file hashes to %s \
            (corrupt or tampered table)"
           table_file expected_digest actual)
    else
      match Store.Segment.load path with
      | seg -> Ok (Store.Segment.entries seg)
      | exception e ->
        Error (Printf.sprintf "%s: undecodable segment: %s" table_file (Printexc.to_string e))
