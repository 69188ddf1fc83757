(* CIMP command syntax and the per-process small-step semantics of Fig. 7.

   CIMP extends IMP with process-algebra-style rendezvous, control and data
   non-determinism, and flat parallel composition (built in [System]).  We
   use the customary mix of a deep embedding of commands and a shallow
   embedding of expressions: guards and state updates are OCaml functions
   over the process's local data state ['s].

   Type parameters, following the paper's presentation:
   - ['a] is the type of rendezvous messages (the paper's alpha), computed by
     the sender's REQUEST as a function of its local state;
   - ['v] is the type of response values (the paper's beta), chosen
     non-deterministically by the receiver's RESPONSE;
   - ['s] is the local data state of a process.

   A process's local control state is a frame stack of commands (Fig. 7,
   second rule); [norm] keeps stacks in the canonical form where the head is
   never a [Seq], so that control states have a unique representation and
   can be fingerprinted by their label spine. *)

type ('a, 'v, 's) t =
  | Skip of Label.t
  | Local_op of Label.t * ('s -> 's list)
  | Request of Label.t * ('s -> 'a) * ('v -> 's -> 's)
  | Response of Label.t * ('a -> 's -> ('s * 'v) list)
  | Seq of ('a, 'v, 's) t * ('a, 'v, 's) t
  | If of Label.t * ('s -> bool) * ('a, 'v, 's) t * ('a, 'v, 's) t
  | While of Label.t * ('s -> bool) * ('a, 'v, 's) t
  | Loop of ('a, 'v, 's) t
  | Choose of ('a, 'v, 's) t list

(* Derived forms. *)

let skip l = Skip l
let seq cs = match cs with [] -> invalid_arg "Com.seq: empty" | c :: cs -> List.fold_left (fun a b -> Seq (a, b)) c cs
let assign l f = Local_op (l, fun s -> [ f s ])
let guard l p = Local_op (l, fun s -> if p s then [ s ] else [])
let if_ l p c = If (l, p, c, Skip (l ^ ":endif"))

(* The leftmost-leaf label of a command: the location of the next atomic
   action to execute if this command is at the head of the stack. *)
let rec head_label = function
  | Skip l | Local_op (l, _) | Request (l, _, _) | Response (l, _) | If (l, _, _, _) | While (l, _, _) -> l
  | Seq (a, _) -> head_label a
  | Loop c -> head_label c
  | Choose [] -> "<empty-choice>"
  | Choose (c :: _) -> head_label c

(* All labels occurring in a command, for the uniqueness check. *)
let labels com =
  let rec go acc = function
    | Skip l | Local_op (l, _) | Request (l, _, _) | Response (l, _) -> l :: acc
    | Seq (a, b) -> go (go acc a) b
    | If (l, _, a, b) -> go (go (l :: acc) a) b
    | While (l, _, c) -> go (l :: acc) c
    | Loop c -> go acc c
    | Choose cs -> List.fold_left go acc cs
  in
  go [] com

(* Check that no label occurs twice; returns the duplicates. *)
let duplicate_labels com =
  let tbl = Hashtbl.create 64 in
  let dups = ref [] in
  let record l =
    if Hashtbl.mem tbl l then dups := l :: !dups else Hashtbl.add tbl l ()
  in
  List.iter record (labels com);
  List.sort_uniq Label.compare !dups

(* -- Frame stacks and local configurations ------------------------------- *)

type ('a, 'v, 's) config = { stack : ('a, 'v, 's) t list; data : 's }

(* Canonical form: decompose Seq at the head of the stack.  Loop and Choose
   are left in place; their unfolding happens transparently in the offer
   functions below, so the stored representation stays canonical. *)
let rec norm = function
  | Seq (a, b) :: rest -> norm (a :: b :: rest)
  | stack -> stack

let make stack data = { stack = norm stack; data }

(* The spine of head labels of each stack frame.  With unique labels this
   identifies the control state ([Check.Fingerprint] hashes the same
   heads without building the list). *)
let stack_labels stack = List.map head_label stack

(* Labels at which control may take its next atomic action.  A [Choose]
   offers all of its alternatives; other commands offer their head.  This is
   the executable counterpart of the paper's [at p l] predicate. *)
let at_labels { stack; _ } =
  let rec heads acc c =
    match c with
    | Seq (a, _) -> heads acc a
    | Loop body -> heads acc body
    | Choose cs -> List.fold_left heads acc cs
    | Skip l | Local_op (l, _) | Request (l, _, _) | Response (l, _) | If (l, _, _, _) | While (l, _, _) ->
      l :: acc
  in
  match stack with [] -> [] | c :: _ -> List.sort_uniq Label.compare (heads [] c)

(* [exists_at f cfg] = [List.exists f (at_labels cfg)], without building
   the list: the invariants ask it of every state. *)
let exists_at f { stack; _ } =
  let rec go = function
    | Seq (a, _) -> go a
    | Loop body -> go body
    | Choose cs -> List.exists go cs
    | Skip l | Local_op (l, _) | Request (l, _, _) | Response (l, _) | If (l, _, _, _) | While (l, _, _) ->
      f l
  in
  match stack with [] -> false | c :: _ -> go c

let terminated { stack; _ } = stack = []

(* -- Offers: the three kinds of transitions a process can make ----------- *)

(* tau-successors: local computation and control-flow steps.  Guard
   evaluation (If/While) counts as one atomic step, as in the Isabelle
   semantics; Loop and Choose unfold without consuming a step, so that an
   external choice commits only when one alternative performs its first
   action (this is what lets Fig. 9's Sys process offer all its RESPONSE
   branches simultaneously). *)
let rec tau_steps { stack; data } =
  match stack with
  | [] -> []
  | Skip l :: rest -> [ (l, make rest data) ]
  | Local_op (l, f) :: rest -> List.map (fun d -> (l, make rest d)) (f data)
  | If (l, p, a, b) :: rest ->
    [ (l, make ((if p data then a else b) :: rest) data) ]
  | While (l, p, c) :: rest as whole ->
    if p data then [ (l, make (c :: whole) data) ] else [ (l, make rest data) ]
  | Loop c :: _ as whole -> tau_steps { stack = norm (c :: whole); data }
  | Choose cs :: rest ->
    List.concat_map (fun c -> tau_steps { stack = norm (c :: rest); data }) cs
  | Seq (a, b) :: rest -> tau_steps { stack = norm (a :: b :: rest); data }
  | (Request _ | Response _) :: _ -> []

(* A *definite* tau step: the process's entire enabled behaviour is exactly
   one deterministic local/control step.  Such steps touch only the
   process's own registers and control point, so no other process can
   observe whether they have happened; executing them eagerly yields the
   evaluation-context normal form the paper uses to generate verification
   conditions "in terms of atomic actions" (Section 3).  Heads under a
   Choose are never definite (stepping would commit the choice), and
   Local_ops with zero or several successors are genuine
   blocking/non-determinism. *)
let rec definite_tau { stack; data } =
  match stack with
  | Skip _ :: rest -> Some (make rest data)
  | If (_, p, a, b) :: rest -> Some (make ((if p data then a else b) :: rest) data)
  | While (_, p, c) :: rest as whole ->
    Some (if p data then make (c :: whole) data else make rest data)
  | Local_op (_, f) :: rest -> (
    match f data with [ d ] -> Some (make rest d) | _ -> None)
  | Loop c :: _ as whole -> definite_tau { stack = norm (c :: whole); data }
  | Seq (a, b) :: rest -> definite_tau { stack = norm (a :: b :: rest); data }
  | (Choose _ | Request _ | Response _) :: _ | [] -> None

(* Request offers: the message alpha (a function of the local state, per
   Fig. 7 third rule) together with the continuation applied to the
   responder's value beta. *)
let rec requests { stack; data } =
  match stack with
  | Request (l, act, apply) :: rest ->
    [ (l, act data, fun v -> make rest (apply v data)) ]
  | Loop c :: _ as whole -> requests { stack = norm (c :: whole); data }
  | Choose cs :: rest ->
    List.concat_map (fun c -> requests { stack = norm (c :: rest); data }) cs
  | Seq (a, b) :: rest -> requests { stack = norm (a :: b :: rest); data }
  | _ -> []

(* Response offers for a given request alpha: each yields the responder's
   successor configuration and the value beta sent back (Fig. 7, last
   rule). *)
let rec responses alpha { stack; data } =
  match stack with
  | Response (l, f) :: rest ->
    List.map (fun (d, v) -> (l, make rest d, v)) (f alpha data)
  | Loop c :: _ as whole -> responses alpha { stack = norm (c :: whole); data }
  | Choose cs :: rest ->
    List.concat_map (fun c -> responses alpha { stack = norm (c :: rest); data }) cs
  | Seq (a, b) :: rest -> responses alpha { stack = norm (a :: b :: rest); data }
  | _ -> []
