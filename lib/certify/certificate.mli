(** The certificate container format: a directory holding [CERT.json]
    (the header) and [table.seg] (the reach table as one [lib/store]
    delta-compressed segment, globally sorted by fingerprint).

    The normative format spec is the generated [docs/CERTIFICATES.md];
    this module is its implementation.  The table digest in the header
    catches accidental corruption cheaply — it is not a signature, and
    validator soundness never rests on it ({!Recheck} re-derives every
    claim semantically). *)

val format_tag : string
(** ["GCCERT003"] — bound into every header; {!header_of_json} refuses
    any other value before reading further fields.  [GCCERT002] tables
    hold fingerprints of the previous scheme. *)

val header_file : string
(** ["CERT.json"]. *)

val table_file : string
(** ["table.seg"]. *)

val header_path : string -> string
(** [header_path dir] is [dir ^ "/CERT.json"]. *)

val table_path : string -> string
(** [table_path dir] is [dir ^ "/table.seg"]. *)

val required_obligations : string list
(** The closure obligations every certificate must name and every
    validator must discharge: ["root"] (the canonical initial state is
    in the table at depth 0), ["closure"] (each entry's regenerated
    successor set is in the table), ["depths"] (each entry's depth stamp
    is its BFS distance from the root), ["verdicts"] (re-evaluating the
    full invariant catalogue on each entry reproduces its verdict).
    {!Recheck.validate} rejects a header omitting any of them. *)

(** The header's fields; [CERT.json] also carries {!format_tag} and
    [omission_bound], {!Check.Fingerprint.omission_bound} of [states]
    (checked on read). *)
type header = {
  config_hash : string;  (** [Config.hash] of the certified instance *)
  reduce : string;  (** reduction mode: "none", "sym", "por" or "all" *)
  invariants : string list;  (** invariant catalogue in evaluation order *)
  obligations : string list;  (** must cover {!required_obligations} *)
  root_fp : int;  (** fingerprint of the canonical initial state *)
  states : int;  (** table entry count *)
  max_depth : int;  (** largest depth stamp in the table *)
  table_digest : string;  (** MD5 (hex) of [table.seg] *)
  scenario : Obs.Json.t;
      (** the instance as [Core.Scenario.to_json] writes it — enough to
          rebuild the model; no run parameters ([jobs], caps, budgets) *)
  safety_only : bool;
      (** the invariant selection: the safety subset ([true]) or the full
          catalogue *)
}

val header_to_json : header -> Obs.Json.t
(** The header as the JSON object [CERT.json] holds. *)

val header_of_json : Obs.Json.t -> (header, string) result
(** Total: [Error] names a wrong format tag first, else the first
    missing or ill-typed field. *)

val write_header : dir:string -> header -> unit
(** Atomic (write-then-rename) emission of [CERT.json] into [dir]. *)

val read_header : string -> (header, string) result
(** Read and parse [dir]'s header ({!header_of_json}). *)

val digest_table : string -> string
(** MD5 (hex) of [dir]'s table file bytes. *)

val load_table :
  expected_digest:string -> string -> (Store.Segment.entry array, string) result
(** Digest-check then decode [dir]'s table.  The digest is compared
    before any decoding, so corruption (bit flips, truncation) is
    reported as a [table.seg] digest mismatch, not a decoder error. *)
