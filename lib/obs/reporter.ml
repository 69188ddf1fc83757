(* Sinks and the emit path.  See reporter.mli. *)

type sink =
  | Null
  | Pretty of Format.formatter
  | Jsonl of out_channel
  | Memory of Json.t list ref
  | Live of Dashboard.t

type t = {
  sink : sink;
  lock : Mutex.t;
  t0_ns : int;  (* monotonic creation time; basis for rel_s *)
  mutable closed : bool;
}

let make sink = { sink; lock = Mutex.create (); t0_ns = Clock.monotonic_ns (); closed = false }

let null = make Null
let pretty ?(ppf = Fmt.stderr) () = make (Pretty ppf)
let jsonl path = make (Jsonl (open_out path))

let memory () =
  let records = ref [] in
  (make (Memory records), fun () -> List.rev !records)

let live ?dashboard () =
  let d = match dashboard with Some d -> d | None -> Dashboard.create () in
  make (Live d)

let enabled t =
  (not t.closed)
  && (match t.sink with Null -> false | Pretty _ | Jsonl _ | Memory _ | Live _ -> true)

let pp_pretty_field ppf (k, v) = Fmt.pf ppf "%s=%a" k Json.pp v

let emit t event fields =
  if enabled t then begin
    (* [ts] is wall-clock time, for humans correlating with other logs;
       [rel_s] is monotonic elapsed time since the reporter was created,
       so wall-clock jumps cannot produce negative or non-monotonic
       offsets in the stream *)
    let now = Unix.gettimeofday () in
    let rel_s = Clock.elapsed_s ~since:t.t0_ns in
    let record =
      Json.Obj
        (("event", Json.String event)
        :: ("ts", Json.Float now)
        :: ("rel_s", Json.Float rel_s)
        :: fields)
    in
    Mutex.lock t.lock;
    (match t.sink with
    | Null -> ()
    | Pretty ppf ->
      Fmt.pf ppf "[obs +%7.3fs] %-12s %a@." rel_s event
        Fmt.(list ~sep:sp pp_pretty_field)
        fields
    | Jsonl oc ->
      output_string oc (Json.to_string record);
      output_char oc '\n';
      flush oc
    | Memory records -> records := record :: !records
    | Live d -> Dashboard.update d event fields);
    Mutex.unlock t.lock
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.sink with
    | Jsonl oc -> close_out oc
    | Live d -> Dashboard.finish d
    | Null | Pretty _ | Memory _ -> ()
  end

(* -- configuration ----------------------------------------------------------- *)

let spec_doc = "off | pretty | json:FILE | live"

let of_spec spec =
  match spec with
  | "off" | "null" | "" -> Ok null
  | "pretty" -> Ok (pretty ())
  | "live" -> Ok (live ())
  | s when String.length s > 5 && String.sub s 0 5 = "json:" ->
    let path = String.sub s 5 (String.length s - 5) in
    (try Ok (jsonl path) with Sys_error msg -> Error msg)
  | s -> Error (Fmt.str "bad observability spec %S (expected %s)" s spec_doc)

let resolve ?spec () =
  let spec =
    match spec with Some _ as s -> s | None -> Sys.getenv_opt "RELAXING_OBS"
  in
  match spec with
  | None -> null
  | Some s -> (
    match of_spec s with Ok t -> t | Error msg -> invalid_arg ("--obs: " ^ msg))
