(* Canonical fingerprints of global CIMP states.

   Control state is identified by each process's label spine (commands
   themselves carry closures and cannot be compared); data states must be
   canonical plain OCaml data — everything in the GC model is ints, bools,
   lists, options and flat variants — so a structural hash of the pair
   identifies the state.

   A fingerprint is the ordered mix of one component hash per process.
   A component mixes the process's control hash (the [Cimp.Label.hash]
   of each stack frame's head label, read off the frames in place) with
   a structural FNV-1a-style walk of its data.  Unlike the polymorphic
   [Hashtbl.hash_param] the walk does not truncate deep states at a
   meaningful-node budget, and the result fills a native word (63 bits
   on 64-bit platforms, presented as a non-zero int64), so it keys the
   explorer's sharded seen-set directly, with collision probability
   about n^2 / 2^64 for n states.

   Components are exposed so that a reducer can assemble a canonical
   fingerprint from them (Reduce.Symmetry sorts the symmetric processes'
   components) without building a canonical system. *)

type t = int (* never 0 *)

(* Names the scheme below; persisted next to fingerprints (checkpoint
   manifests) and bumped whenever any fingerprint value changes. *)
let scheme = "components-1"

(* -- the structural mix ----------------------------------------------------- *)

(* FNV-1a over native ints: xor then multiply by the 64-bit FNV prime,
   wrapping mod 2^63.  Unboxed throughout — no Int64 in the hot path. *)
let fnv_prime = 0x100000001b3
let seed = 0xcbf29ce484222
let mix h x = (h lxor x) * fnv_prime

(* Structural walk of a data payload.  Only the representations canonical
   data can have: immediates, scannable blocks, strings, boxed floats.
   Functional and abstract values violate the module contract (their
   representation says nothing about their behaviour), so fail loudly.

   One mixed word per node: an immediate [x] as the odd word [2x+1], a
   block as the even header word [size lsl 9 lor tag lsl 1] followed by
   its fields (a string by its bytes, a float by its bits, a custom
   block by its polymorphic hash).  Parity and the header's size make
   the word sequence decode uniquely (for ints within 62 bits), so
   distinct canonical values can only meet by a collision of the mix. *)
let header n tag = (n lsl 9) lor (tag lsl 1)

let rec mix_obj h (o : Stdlib.Obj.t) =
  if Stdlib.Obj.is_int o then mix h (((Stdlib.Obj.obj o : int) lsl 1) lor 1)
  else begin
    let tag = Stdlib.Obj.tag o in
    if tag = Stdlib.Obj.closure_tag || tag = Stdlib.Obj.infix_tag
       || tag = Stdlib.Obj.object_tag || tag = Stdlib.Obj.lazy_tag
       || tag = Stdlib.Obj.forward_tag
    then invalid_arg "Fingerprint: non-canonical value in a data state"
    else if tag < Stdlib.Obj.no_scan_tag then begin
      let n = Stdlib.Obj.size o in
      let acc = ref (mix h (header n tag)) in
      for i = 0 to n - 1 do
        acc := mix_obj !acc (Stdlib.Obj.field o i)
      done;
      !acc
    end
    else if tag = Stdlib.Obj.string_tag then begin
      let s : string = Stdlib.Obj.obj o in
      let acc = ref (mix h (header (String.length s) tag)) in
      for i = 0 to String.length s - 1 do
        acc := mix !acc (Char.code (String.unsafe_get s i))
      done;
      !acc
    end
    else if tag = Stdlib.Obj.double_tag then
      mix (mix h (header 1 tag)) (Int64.to_int (Int64.bits_of_float (Stdlib.Obj.obj o : float)))
    else (* custom blocks (Int64.t etc.): content-hashed polymorphically *)
      mix (mix h (header 1 tag)) (Hashtbl.hash o)
  end

let mix_data h v = mix_obj h (Stdlib.Obj.repr v)

(* -- components ------------------------------------------------------------- *)

let rec mix_heads h = function
  | [] -> h
  | c :: rest -> mix_heads (mix h (Cimp.Label.hash (Cimp.Com.head_label c))) rest

let control stack = mix_heads (mix seed 13) stack
let data v = mix_data (mix seed 17) v
let component (cfg : ('a, 'v, 's) Cimp.Com.config) = mix (control cfg.stack) (data cfg.data)

(* A final avalanche (the xor-shift-multiply finalizer of MurmurHash3,
   narrowed to 63 bits): FNV's multiply only carries differences upward,
   and the seen-set shards and probes on the low bits. *)
let finish h =
  let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  (* 0 is the seen-set's empty-slot sentinel *)
  if h = 0 then 1 else h

let of_system (sys : ('a, 'v, 's) Cimp.System.t) : t =
  let h = ref seed in
  for p = 0 to Cimp.System.n_procs sys - 1 do
    h := mix !h (component (Cimp.System.proc sys p))
  done;
  finish !h

let hash (a : t) = a
let fp64 (a : t) = Int64.of_int a

(* Birthday bound on hash compaction: the n(n-1)/2 pairs of n distinct
   states each collide with probability 2^-63, so some state is wrongly
   taken as seen with probability at most n^2 / 2^64. *)
let omission_bound n = Float.ldexp (float_of_int n *. float_of_int n) (-64)
