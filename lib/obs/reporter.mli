(** Event reporters: where observability records go.

    A reporter owns one sink — [null] (the default everywhere; emitting is
    a single branch, so instrumented code pays nothing when observability
    is off), a human [pretty] printer, a [jsonl] stream (one JSON object
    per line, the machine-readable trace), or an in-process [memory]
    buffer (tests).  Emission is mutex-protected so the multicore runtime
    can report from several domains into one stream.

    Every record carries [event] (the record type), [ts] (Unix time) and
    [rel_s] (seconds since the reporter was created), then the caller's
    fields. *)

type t

(** The no-op reporter: [enabled] is false, [emit] returns immediately. *)
val null : t

(** Human-readable sink (default [Fmt.stderr], so event lines do not
    corrupt result output on stdout). *)
val pretty : ?ppf:Format.formatter -> unit -> t

(** [jsonl path] truncates/creates [path] and streams one JSON object per
    line.  Lines are flushed as they are written so a crashed run still
    leaves a valid prefix. *)
val jsonl : string -> t

(** In-memory sink; the returned thunk snapshots the records emitted so
    far (in emission order). *)
val memory : unit -> t * (unit -> Json.t list)

(** Live TTY dashboard sink ([--obs=live]): records drive an in-place
    status panel instead of a log stream (see {!Dashboard}).  [dashboard]
    overrides the auto-detected one — tests render into a buffer. *)
val live : ?dashboard:Dashboard.t -> unit -> t

(** [false] exactly for {!null} and closed reporters: guards
    instrumentation whose mere bookkeeping would cost something. *)
val enabled : t -> bool

(** [emit t event fields] writes one record.  No-op when disabled. *)
val emit : t -> string -> (string * Json.t) list -> unit

(** Flush and release the sink ([jsonl] closes the file).  Idempotent;
    further emits are dropped. *)
val close : t -> unit

(** {1 Configuration}

    The CLI surface: [--obs=off | pretty | json:FILE | live], with the
    [RELAXING_OBS] environment variable as fallback. *)

val spec_doc : string
(** One-line syntax description for [--help] texts. *)

val of_spec : string -> (t, string) result

(** [resolve ?spec ()]: parse [spec] when given, else [$RELAXING_OBS],
    else {!null}.
    @raise Invalid_argument on a malformed spec. *)
val resolve : ?spec:string -> unit -> t
