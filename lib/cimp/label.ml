(* Program-location labels.

   Every CIMP command carries a label, written [{l}] in the paper (Fig. 7).
   Labels serve two purposes: they anchor the [at p l] local assertions of
   Section 3.2, and they let the model checker fingerprint control state
   without inspecting the (closure-bearing) command syntax.  Labels must be
   unique within a program; [Cimp.Com.duplicate_labels] finds violations. *)

type t = string

let compare = String.compare
let equal = String.equal
let pp = Fmt.string

(* A 63-bit hash of the label text: an FNV-1a-style mix taking eight
   bytes per step (little-endian, so the value is the same on every
   platform), with a shift-xor after each word so that the high bytes of
   a word reach the low bits the seen-set indexes by.  It depends on
   nothing but the text — not on allocation, interning order or table
   seeding — so fingerprints built from it can be compared across
   processes.  Allocation-free. *)
let fnv_prime = 0x100000001b3

let hash (l : t) =
  let n = String.length l in
  let h = ref ((0xcbf29ce484222 lxor n) * fnv_prime) in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = (!h lxor Int64.to_int (String.get_int64_le l !i)) * fnv_prime in
    h := w lxor (w lsr 32);
    i := !i + 8
  done;
  while !i < n do
    h := (!h lxor Char.code (String.unsafe_get l !i)) * fnv_prime;
    incr i
  done;
  !h

exception Hash_collision of t * t

let check_distinct_hashes ?(hash = hash) labels =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun l ->
      let h = hash l in
      match Hashtbl.find_opt seen h with
      | Some l' when not (equal l l') -> raise (Hash_collision (l', l))
      | Some _ -> ()
      | None -> Hashtbl.add seen h l)
    labels

(* A small generator for machine-made labels, used when expanding a template
   (e.g. the [mark] code sequence) several times within one program. *)
let fresh_counter = ref 0

let fresh prefix =
  incr fresh_counter;
  Printf.sprintf "%s#%d" prefix !fresh_counter
