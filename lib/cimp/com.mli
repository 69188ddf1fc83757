(** CIMP commands and the per-process small-step semantics of the paper's
    Fig. 7.

    CIMP extends IMP with process-algebra-style rendezvous, control and
    data non-determinism, and flat parallel composition (see {!System}).
    Commands are deeply embedded; expressions (guards, state updates,
    message constructors) are shallowly embedded as OCaml functions over
    the process's local data state ['s].

    Type parameters follow the paper: ['a] is the rendezvous message type
    (alpha), ['v] the response value type (beta), ['s] the local data
    state. *)

type ('a, 'v, 's) t =
  | Skip of Label.t  (** no-op; one tau step *)
  | Local_op of Label.t * ('s -> 's list)
      (** LOCALOP R: update the local state non-deterministically; an empty
          successor list blocks *)
  | Request of Label.t * ('s -> 'a) * ('v -> 's -> 's)
      (** REQUEST act val: offer the message [act s]; on rendezvous, apply
          the responder's value to the local state *)
  | Response of Label.t * ('a -> 's -> ('s * 'v) list)
      (** RESPONSE act: accept a message, non-deterministically choose a
          successor state and reply value; an empty list refuses *)
  | Seq of ('a, 'v, 's) t * ('a, 'v, 's) t  (** sequential composition *)
  | If of Label.t * ('s -> bool) * ('a, 'v, 's) t * ('a, 'v, 's) t
      (** guard evaluation takes one atomic step *)
  | While of Label.t * ('s -> bool) * ('a, 'v, 's) t
  | Loop of ('a, 'v, 's) t  (** everlasting repetition; unfolds transparently *)
  | Choose of ('a, 'v, 's) t list
      (** external choice: offers the union of its branches' first actions
          and commits only when one branch acts *)

(** {1 Derived forms} *)

val skip : Label.t -> ('a, 'v, 's) t

(** [seq cs] is the left-nested sequential composition of [cs].
    @raise Invalid_argument on the empty list. *)
val seq : ('a, 'v, 's) t list -> ('a, 'v, 's) t

(** [assign l f] deterministically updates the local state. *)
val assign : Label.t -> ('s -> 's) -> ('a, 'v, 's) t

(** [guard l p] blocks unless [p] holds. *)
val guard : Label.t -> ('s -> bool) -> ('a, 'v, 's) t

(** [if_ l p c] is [If (l, p, c, skip)]. *)
val if_ : Label.t -> ('s -> bool) -> ('a, 'v, 's) t -> ('a, 'v, 's) t

(** {1 Labels} *)

(** The leftmost-leaf label: the location of the next atomic action if
    this command runs next. *)
val head_label : ('a, 'v, 's) t -> Label.t

(** All labels occurring in a command. *)
val labels : ('a, 'v, 's) t -> Label.t list

(** Labels occurring more than once (they would confuse control
    fingerprinting; {!Core.Model} rejects such programs). *)
val duplicate_labels : ('a, 'v, 's) t -> Label.t list

(** {1 Local configurations (frame stacks)} *)

(** A process's local state: a frame stack of commands paired with its
    data state (Fig. 7, second rule). *)
type ('a, 'v, 's) config = { stack : ('a, 'v, 's) t list; data : 's }

(** [make stack data] builds a configuration in canonical form (no [Seq]
    at the head of the stack). *)
val make : ('a, 'v, 's) t list -> 's -> ('a, 'v, 's) config

val norm : ('a, 'v, 's) t list -> ('a, 'v, 's) t list

(** The spine of head labels of the stack frames; with unique labels this
    identifies the control state. *)
val stack_labels : ('a, 'v, 's) t list -> Label.t list

(** Labels at which control can take its next atomic action — the
    executable counterpart of the paper's [at p l] predicate.  A [Choose]
    contributes all of its branch heads. *)
val at_labels : ('a, 'v, 's) config -> Label.t list

(** [exists_at f cfg]: some label of {!at_labels} satisfies [f].
    Allocation-free. *)
val exists_at : (Label.t -> bool) -> ('a, 'v, 's) config -> bool

val terminated : ('a, 'v, 's) config -> bool

(** {1 Transition offers} *)

(** All tau successors, each labelled with the location that fired. *)
val tau_steps : ('a, 'v, 's) config -> (Label.t * ('a, 'v, 's) config) list

(** All request offers: the firing label, the message, and the
    continuation awaiting the responder's value. *)
val requests : ('a, 'v, 's) config -> (Label.t * 'a * ('v -> ('a, 'v, 's) config)) list

(** All response offers for a given message: the firing label, the
    responder's successor, and the value sent back. *)
val responses : 'a -> ('a, 'v, 's) config -> (Label.t * ('a, 'v, 's) config * 'v) list

(** If the process's entire enabled behaviour is exactly one deterministic
    local/control step, its successor; such steps are unobservable by
    other processes and may be executed eagerly ({!System.normalize}). *)
val definite_tau : ('a, 'v, 's) config -> ('a, 'v, 's) config option
