(* Canonical fingerprints of global CIMP states.

   Control state is identified by each process's label spine (commands
   themselves carry closures and cannot be compared); data states must be
   canonical plain OCaml data — everything in the GC model is ints, bools,
   lists, options and flat variants — so a structural hash of the pair
   identifies the state.

   The fingerprint is an FNV-1a-style mix over the label spine and a
   traversal of the data representation.  Unlike the polymorphic
   [Hashtbl.hash_param] it does not truncate deep states at a
   meaningful-node budget, and it fills a native word (63 bits on 64-bit
   platforms, presented as a non-zero int64), so it keys the explorer's
   sharded seen-set directly, with collision probability ~ n^2 / 2^63. *)

type t = int (* never 0 *)

(* -- the structural mix ----------------------------------------------------- *)

(* FNV-1a over native ints: xor then multiply by the 64-bit FNV prime,
   wrapping mod 2^63.  Unboxed throughout — no Int64 in the hot path. *)
let fnv_prime = 0x100000001b3
let mix h x = (h lxor x) * fnv_prime

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

(* Structural walk of a data payload.  Only the representations canonical
   data can have: immediates, scannable blocks, strings, boxed floats.
   Functional and abstract values violate the module contract (their
   representation says nothing about their behaviour), so fail loudly. *)
let rec mix_obj h (o : Stdlib.Obj.t) =
  if Stdlib.Obj.is_int o then mix (mix h 3) (Stdlib.Obj.obj o : int)
  else begin
    let tag = Stdlib.Obj.tag o in
    if tag = Stdlib.Obj.closure_tag || tag = Stdlib.Obj.infix_tag
       || tag = Stdlib.Obj.object_tag || tag = Stdlib.Obj.lazy_tag
       || tag = Stdlib.Obj.forward_tag
    then invalid_arg "Fingerprint: non-canonical value in a data state"
    else if tag < Stdlib.Obj.no_scan_tag then begin
      let n = Stdlib.Obj.size o in
      let acc = ref (mix (mix (mix h 5) tag) n) in
      for i = 0 to n - 1 do
        acc := mix_obj !acc (Stdlib.Obj.field o i)
      done;
      !acc
    end
    else if tag = Stdlib.Obj.string_tag then mix_string (mix h 7) (Stdlib.Obj.obj o : string)
    else if tag = Stdlib.Obj.double_tag then
      mix (mix h 9) (Int64.to_int (Int64.bits_of_float (Stdlib.Obj.obj o : float)))
    else (* custom blocks (Int64.t etc.): content-hashed polymorphically *)
      mix (mix h 11) (Hashtbl.hash o)
  end

(* The data payloads are passed as Obj.t to keep this module polymorphic in
   the system's state type; they are only ever consumed by the structural
   walk above, never re-projected. *)
let of_parts ~control ~data : t =
  let h =
    List.fold_left (fun h spine -> List.fold_left mix_string (mix h 13) spine)
      0xcbf29ce484222 control
  in
  let h = List.fold_left mix_obj (mix h 17) data in
  (* 0 is the seen-set's empty-slot sentinel *)
  if h = 0 then 1 else h

let of_system (sys : ('a, 'v, 's) Cimp.System.t) : t =
  let n = Cimp.System.n_procs sys in
  let control = Cimp.System.control_fingerprint sys in
  let data =
    List.init n (fun p -> Stdlib.Obj.repr (Cimp.System.proc sys p).Cimp.Com.data)
  in
  of_parts ~control ~data

let hash (a : t) = a
let fp64 (a : t) = Int64.of_int a
