(* Model configuration: instance bounds and the ablation/variant switches.

   The [true, true, ...] defaults give the paper's collector; each switch
   either removes a mechanism the proof depends on (expected: the checker
   finds a safety violation) or enacts one of the paper's Section 4
   "Observations" (expected: still safe). *)

(* Single-site syntactic mutations over the model programs, for the
   mutation-testing campaign (lib/mutate).  Unlike the variant switches
   above each of these perturbs exactly ONE program point; the builders in
   collector.ml / mutator.ml / mark.ml consult the active mutation at
   construction time, keyed by the label (or label prefix) of the site, so
   a mutant is still an ordinary [t -> t] tweak that composes with
   [Variants.t] and leaves the mutator programs identical across pids
   (pid-symmetry reduction stays sound). *)
type mutation =
  | Drop_fence of string  (* replace the MFENCE at this exact label by a skip *)
  | Weaken_cas of string  (* this mark expansion (by prefix): CAS -> unlocked test-and-set *)
  | Elide_barrier of string  (* "del" | "ins": skip that write-barrier instance *)
  | Skip_hs_wait of string  (* handshake tag: collector does not wait for the acks *)
  | Swap_mark_loads of string  (* this mark expansion: load flag before f_M *)
  | Alloc_color_off  (* allocate with the opposite of the allocation color *)

type t = {
  n_muts : int;
  n_refs : int;
  n_fields : int;
  buf_bound : int;  (* TSO store-buffer capacity (paper: unbounded) *)
  sc_memory : bool;  (* commit stores immediately: the SC baseline *)
  pso_memory : bool;
    (* extension: partial store order — buffers are per-location FIFO only,
       stores to different locations may commit out of order (first step
       toward the ARM/POWER models of Section 4) *)
  deletion_barrier : bool;  (* Fig. 6 line 8: the snapshot barrier *)
  insertion_barrier : bool;  (* Fig. 6 line 9: the incremental-update barrier *)
  insertion_skip_after_roots : bool;
    (* O2: mutators that passed get-roots skip the insertion barrier
       (extra branch in the store barrier) *)
  alloc_white : bool;  (* ablation: ignore fA, always allocate unmarked *)
  handshake_fences : bool;  (* ablation: drop all four handshake MFENCEs *)
  skip_init_handshakes : bool;
    (* O1: drop the two middle initialization rounds (nop2, nop3) *)
  cas_mark : bool;  (* ablation (false): mark without the LOCK'd CAS *)
  mut_load : bool;  (* mutator operation repertoire, for targeted runs *)
  mut_store : bool;
  mut_alloc : bool;
  mut_discard : bool;
  mut_mfence : bool;
  max_cycles : int;
    (* 0 = the paper's everlasting control loop; k > 0 bounds the run to k
       mark-sweep cycles so that exhaustive exploration can close *)
  max_mut_ops : int;
    (* 0 = unbounded mutators; k > 0 gives each mutator a budget of k
       heap operations (handshaking stays free), again for closure *)
  mutation : mutation option;  (* at most one syntactic mutation at a time *)
}

let default =
  {
    n_muts = 1;
    n_refs = 3;
    n_fields = 1;
    buf_bound = 2;
    sc_memory = false;
    pso_memory = false;
    deletion_barrier = true;
    insertion_barrier = true;
    insertion_skip_after_roots = false;
    alloc_white = false;
    handshake_fences = true;
    skip_init_handshakes = false;
    cas_mark = true;
    mut_load = true;
    mut_store = true;
    mut_alloc = true;
    mut_discard = true;
    mut_mfence = true;
    max_cycles = 0;
    max_mut_ops = 0;
    mutation = None;
  }

let mutation_name = function
  | Drop_fence lbl -> "drop-fence:" ^ lbl
  | Weaken_cas p -> "weaken-cas:" ^ p
  | Elide_barrier b -> "elide-barrier:" ^ b
  | Skip_hs_wait tag -> "skip-hs-wait:" ^ tag
  | Swap_mark_loads p -> "swap-mark-loads:" ^ p
  | Alloc_color_off -> "alloc-color-off"

(* Stable serialization of the full configuration, for certificate
   headers (lib/certify).  The record is destructured exhaustively —
   without a wildcard — so adding a field breaks this function at
   compile time instead of silently hashing configurations that differ
   in the new field to the same string. *)
let describe cfg =
  let {
    n_muts;
    n_refs;
    n_fields;
    buf_bound;
    sc_memory;
    pso_memory;
    deletion_barrier;
    insertion_barrier;
    insertion_skip_after_roots;
    alloc_white;
    handshake_fences;
    skip_init_handshakes;
    cas_mark;
    mut_load;
    mut_store;
    mut_alloc;
    mut_discard;
    mut_mfence;
    max_cycles;
    max_mut_ops;
    mutation;
  } =
    cfg
  in
  let b v = if v then "1" else "0" in
  String.concat ";"
    [
      Printf.sprintf "muts=%d" n_muts;
      Printf.sprintf "refs=%d" n_refs;
      Printf.sprintf "fields=%d" n_fields;
      Printf.sprintf "buf=%d" buf_bound;
      "sc=" ^ b sc_memory;
      "pso=" ^ b pso_memory;
      "del=" ^ b deletion_barrier;
      "ins=" ^ b insertion_barrier;
      "o2=" ^ b insertion_skip_after_roots;
      "allocw=" ^ b alloc_white;
      "hsf=" ^ b handshake_fences;
      "o1=" ^ b skip_init_handshakes;
      "cas=" ^ b cas_mark;
      "load=" ^ b mut_load;
      "store=" ^ b mut_store;
      "alloc=" ^ b mut_alloc;
      "discard=" ^ b mut_discard;
      "mfence=" ^ b mut_mfence;
      Printf.sprintf "cycles=%d" max_cycles;
      Printf.sprintf "ops=%d" max_mut_ops;
      ("mutation=" ^ match mutation with None -> "-" | Some m -> mutation_name m);
    ]

let mutation_of_name name =
  let arg prefix = String.sub name (String.length prefix) (String.length name - String.length prefix) in
  let has prefix = String.starts_with ~prefix name in
  if name = "alloc-color-off" then Some Alloc_color_off
  else if has "drop-fence:" then Some (Drop_fence (arg "drop-fence:"))
  else if has "weaken-cas:" then Some (Weaken_cas (arg "weaken-cas:"))
  else if has "elide-barrier:" then Some (Elide_barrier (arg "elide-barrier:"))
  else if has "skip-hs-wait:" then Some (Skip_hs_wait (arg "skip-hs-wait:"))
  else if has "swap-mark-loads:" then Some (Swap_mark_loads (arg "swap-mark-loads:"))
  else None

(* The exact inverse of [describe].  The record is built as a literal —
   no [{ default with ... }] — so a new field is a compile error here
   too, and a string naming fewer fields than [describe] writes is
   rejected rather than completed from defaults.  Keys are consumed as
   they are read; any left over are unknown. *)
let of_describe s =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let fields = Hashtbl.create 32 in
  let get key =
    match Hashtbl.find_opt fields key with
    | Some v ->
      Hashtbl.remove fields key;
      v
    | None -> bad "config key %S missing" key
  in
  let int key =
    let v = get key in
    match int_of_string_opt v with Some n -> n | None -> bad "config key %S: bad integer %S" key v
  in
  let bool key =
    match get key with
    | "1" -> true
    | "0" -> false
    | v -> bad "config key %S: bad boolean %S (expected 0 or 1)" key v
  in
  match
    List.iter
      (fun kv ->
        match String.index_opt kv '=' with
        | None -> bad "config field %S has no '='" kv
        | Some i ->
          let key = String.sub kv 0 i in
          if Hashtbl.mem fields key then bad "config key %S occurs twice" key;
          Hashtbl.add fields key (String.sub kv (i + 1) (String.length kv - i - 1)))
      (String.split_on_char ';' s);
    let cfg =
      {
        n_muts = int "muts";
        n_refs = int "refs";
        n_fields = int "fields";
        buf_bound = int "buf";
        sc_memory = bool "sc";
        pso_memory = bool "pso";
        deletion_barrier = bool "del";
        insertion_barrier = bool "ins";
        insertion_skip_after_roots = bool "o2";
        alloc_white = bool "allocw";
        handshake_fences = bool "hsf";
        skip_init_handshakes = bool "o1";
        cas_mark = bool "cas";
        mut_load = bool "load";
        mut_store = bool "store";
        mut_alloc = bool "alloc";
        mut_discard = bool "discard";
        mut_mfence = bool "mfence";
        max_cycles = int "cycles";
        max_mut_ops = int "ops";
        mutation =
          (match get "mutation" with
          | "-" -> None
          | v -> (
            match mutation_of_name v with
            | Some m -> Some m
            | None -> bad "config key \"mutation\": unknown mutation %S" v));
      }
    in
    Hashtbl.iter (fun key _ -> bad "unknown config key %S" key) fields;
    cfg
  with
  | cfg -> Ok cfg
  | exception Bad msg -> Error msg

let hash cfg = Digest.to_hex (Digest.string (describe cfg))

(* Per-site queries for the program builders.  Each is a straight equality
   test against the active mutation, so an unmutated configuration pays one
   pattern match per site at construction time and nothing at run time. *)
let fence_dropped cfg lbl = cfg.mutation = Some (Drop_fence lbl)
let cas_weakened cfg prefix = cfg.mutation = Some (Weaken_cas prefix)
let barrier_elided cfg which = cfg.mutation = Some (Elide_barrier which)
let hs_wait_skipped cfg tag = cfg.mutation = Some (Skip_hs_wait tag)
let mark_loads_swapped cfg prefix = cfg.mutation = Some (Swap_mark_loads prefix)
let alloc_flipped cfg = cfg.mutation = Some Alloc_color_off

(* Process identifiers within the CIMP system: the collector, then the
   mutators, then Sys.  Store buffers, work-lists and ghost-grey slots are
   indexed by the software pids 0..n_muts (collector and mutators). *)
let pid_gc = 0
let pid_mut _cfg m = 1 + m
let pid_sys cfg = 1 + cfg.n_muts
let n_procs cfg = cfg.n_muts + 2
let n_software cfg = cfg.n_muts + 1

let proc_name cfg p =
  if p = pid_gc then "gc"
  else if p = pid_sys cfg then "sys"
  else Printf.sprintf "mut%d" (p - 1)
