(** [--obs=live]: an in-terminal dashboard over the observability stream.

    The dashboard is a reporter sink (see {!Reporter.of_spec}): it
    consumes the same records the JSONL sink would write — heartbeats,
    [scaling-detail], [outcome] — and redraws a status panel in place:
    states/s, frontier size, ETA against the state cap, per-domain rate
    bars, shard-lock heat, and (under
    [--mem-budget]) a tiered-store line: resident bytes against the
    budget, on-disk segment count and spilled-state count.

    On a real terminal (stderr is a tty and [$TERM] is not [dumb]) it
    uses ANSI cursor movement to redraw in place, throttled to 10 Hz.
    Otherwise it falls back to plain append-only status lines at most
    once per second, so logs captured from CI stay readable. *)

type t

type mode = Ansi | Plain

(** [create ()] auto-detects the mode from stderr unless [mode] is
    forced.  [out] overrides the output (default stderr) — tests render
    into a buffer. *)
val create : ?mode:mode -> ?out:(string -> unit) -> unit -> t

(** Feed one observability record (the event name and its fields). *)
val update : t -> string -> (string * Json.t) list -> unit

(** Draw the final panel state and release the terminal (the cursor ends
    on a fresh line).  Idempotent. *)
val finish : t -> unit
