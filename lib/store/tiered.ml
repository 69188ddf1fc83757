(* Tier 0's concurrency discipline: every operation, including the 70%-load
   doubling and now the freeze/merge paths, runs entirely under the
   owning shard's mutex, so two workers can never resize (or spill) the
   same shard concurrently and an insert can never land in a table a
   concurrent resize is about to discard.

   The RAM meta word packs, from bit 0: depth stamp (40 bits), violated
   invariant index + 1 (16 bits), expanded bit (bit 56).  The segment
   meta word is narrower — depth (23 bits), violation (8 bits), expanded
   (bit 31) — so spilling guards both widths; 2^23 BFS depth is far past
   anything an explicit-state run reaches. *)

let n_shards = 64
let shard_bits = 6 (* log2 n_shards *)
let entry_bytes = 32 (* 4 words: key, parent, event, meta *)
let depth_bits = 40
let depth_mask = (1 lsl depth_bits) - 1
let viol_bits = 16
let viol_shift = depth_bits
let viol_mask = (1 lsl viol_bits) - 1
let expanded_bit = 1 lsl (depth_bits + viol_bits)

(* segment (32-bit) meta layout *)
let d32_bits = 23
let d32_mask = (1 lsl d32_bits) - 1
let v32_shift = d32_bits
let v32_mask = 0xFF
let x32_bit = 1 lsl 31

(* bounded by the 8-bit violation slot of the segment layout *)
let max_violation_index = v32_mask - 2

let meta32_of_ram m =
  let d = m land depth_mask in
  let v = (m lsr viol_shift) land viol_mask in
  if d > d32_mask then invalid_arg "Tiered: depth stamp too large to spill";
  if v > v32_mask then invalid_arg "Tiered: violation index too large to spill";
  d lor (v lsl v32_shift) lor (if m land expanded_bit <> 0 then x32_bit else 0)

let ram_of_meta32 m =
  m land d32_mask
  lor (((m lsr v32_shift) land v32_mask) lsl viol_shift)
  lor (if m land x32_bit <> 0 then expanded_bit else 0)

type add_result = Fresh | Improved of int | Stale

type hooks = {
  on_spill : shard:int -> entries:int -> bytes:int -> start_ns:int -> stop_ns:int -> unit;
  on_merge : shard:int -> segments:int -> entries:int -> start_ns:int -> stop_ns:int -> unit;
  on_disk_probe : shard:int -> hit:bool -> start_ns:int -> stop_ns:int -> unit;
}

let no_hooks =
  {
    on_spill = (fun ~shard:_ ~entries:_ ~bytes:_ ~start_ns:_ ~stop_ns:_ -> ());
    on_merge = (fun ~shard:_ ~segments:_ ~entries:_ ~start_ns:_ ~stop_ns:_ -> ());
    on_disk_probe = (fun ~shard:_ ~hit:_ ~start_ns:_ ~stop_ns:_ -> ());
  }

type stats = {
  spills : int;
  merges : int;
  segments : int;
  spilled_entries : int;
  disk_probes : int;
  disk_hits : int;
  bloom_checks : int;
  bloom_negatives : int;
  resident_entries : int;
  resident_bytes : int;
  peak_resident_bytes : int;
  disk_bytes : int;
  segment_mem_bytes : int;
}

type shard = {
  id : int;
  lock : Obs.Contention.lock;
  mutable keys : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable parents : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable meta : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable events : int array;
  mutable count : int;  (* tier-0 occupancy *)
  mutable distinct : int;  (* distinct states (shadow copies excluded) *)
  mutable segs : Segment.t list;  (* newest first *)
  mutable next_seq : int;
  mutable spills : int;
  mutable merges : int;
  mutable spilled_entries : int;
  mutable disk_probes : int;
  mutable disk_hits : int;
  mutable bloom_checks : int;
  mutable bloom_negatives : int;
  mutable peak_bytes : int;
}

type t = {
  shards : shard array;
  initial_cap : int;
  budget : int;  (* bytes, 0 = never spill *)
  shard_budget : int;  (* bytes of tier-0 occupancy that trigger a freeze *)
  merge_fanout : int;
  mutable dir : string option;
  mutable hooks : hooks;
  mutable timed : bool;  (* pay clock reads around spill/merge/probe *)
}

let make_arr cap =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap in
  Bigarray.Array1.fill a 0;
  a

let default_shard_cap = 1024

let temp_counter = Atomic.make 0

let fresh_temp_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go () =
    let d =
      Filename.concat base
        (Printf.sprintf "gcstore-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add temp_counter 1))
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go ()
  in
  go ()

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(shard_cap = default_shard_cap) ?(mem_budget = 0) ?spill_dir ?(merge_fanout = 8) ()
    =
  if shard_cap <= 0 || shard_cap land (shard_cap - 1) <> 0 then
    invalid_arg "Tiered.create: shard_cap must be a power of two";
  if merge_fanout < 2 then invalid_arg "Tiered.create: merge_fanout must be >= 2";
  let dir =
    if mem_budget > 0 then begin
      match spill_dir with
      | Some d ->
        mkdirs d;
        Some d
      | None -> Some (fresh_temp_dir ())
    end
    else (* keep an explicit dir so checkpoints of all-RAM runs can
            still attach resumed segments *)
      spill_dir
  in
  (* freeze when measured occupancy (entries x entry_bytes) crosses the
     shard's slice of the budget; the floor keeps degenerate budgets
     from writing near-empty segments *)
  let shard_budget = if mem_budget > 0 then max (16 * entry_bytes) (mem_budget / n_shards) else 0 in
  {
    shards =
      Array.init n_shards (fun id ->
          {
            id;
            lock = Obs.Contention.make_lock ();
            keys = make_arr shard_cap;
            parents = make_arr shard_cap;
            meta = make_arr shard_cap;
            events = Array.make shard_cap 0;
            count = 0;
            distinct = 0;
            segs = [];
            next_seq = 0;
            spills = 0;
            merges = 0;
            spilled_entries = 0;
            disk_probes = 0;
            disk_hits = 0;
            bloom_checks = 0;
            bloom_negatives = 0;
            peak_bytes = 0;
          });
    initial_cap = shard_cap;
    budget = mem_budget;
    shard_budget;
    merge_fanout;
    dir;
    hooks = no_hooks;
    timed = false;
  }

let set_hooks t hooks =
  t.hooks <- hooks;
  t.timed <- true

let spill_dir t = t.dir
let mem_budget t = t.budget

let ensure_spill_dir t =
  match t.dir with
  | Some d -> d
  | None ->
    let d = fresh_temp_dir () in
    t.dir <- Some d;
    d

let shard (t : t) fp = t.shards.(fp land (n_shards - 1))

(* Slot of [fp], or of the empty slot where it belongs; caller locks. *)
let probe keys cap fp =
  let mask = cap - 1 in
  let i = ref ((fp asr shard_bits) land mask) in
  let go = ref true in
  while !go do
    let k = Bigarray.Array1.unsafe_get keys !i in
    if k = 0 || k = fp then go := false else i := (!i + 1) land mask
  done;
  !i

let grow s =
  let old_cap = Bigarray.Array1.dim s.keys in
  let cap = 2 * old_cap in
  let keys = make_arr cap in
  let parents = make_arr cap in
  let meta = make_arr cap in
  let events = Array.make cap 0 in
  for i = 0 to old_cap - 1 do
    let k = Bigarray.Array1.unsafe_get s.keys i in
    if k <> 0 then begin
      let j = probe keys cap k in
      Bigarray.Array1.unsafe_set keys j k;
      Bigarray.Array1.unsafe_set parents j (Bigarray.Array1.unsafe_get s.parents i);
      Bigarray.Array1.unsafe_set meta j (Bigarray.Array1.unsafe_get s.meta i);
      events.(j) <- s.events.(i)
    end
  done;
  s.keys <- keys;
  s.parents <- parents;
  s.meta <- meta;
  s.events <- events

(* Insert a fingerprint known to be absent from tier 0; caller locks. *)
let tier0_insert s fp ~parent ~event ~meta =
  while 10 * (s.count + 1) > 7 * Bigarray.Array1.dim s.keys do
    grow s
  done;
  let i = probe s.keys (Bigarray.Array1.dim s.keys) fp in
  Bigarray.Array1.unsafe_set s.keys i fp;
  Bigarray.Array1.unsafe_set s.parents i parent;
  Bigarray.Array1.unsafe_set s.meta i meta;
  s.events.(i) <- event;
  s.count <- s.count + 1;
  let bytes = s.count * entry_bytes in
  if bytes > s.peak_bytes then s.peak_bytes <- bytes

let seg_path t s seq =
  Filename.concat (ensure_spill_dir t) (Printf.sprintf "shard%02d-%06d.seg" s.id seq)

(* Sorted tier-0 contents with segment-layout meta words; caller locks. *)
let dump_locked s =
  let arr = Array.make s.count { Segment.fp = 0; parent = 0; event = 0; meta = 0 } in
  let j = ref 0 in
  for i = 0 to Bigarray.Array1.dim s.keys - 1 do
    let k = Bigarray.Array1.unsafe_get s.keys i in
    if k <> 0 then begin
      arr.(!j) <-
        {
          Segment.fp = k;
          parent = Bigarray.Array1.unsafe_get s.parents i;
          event = s.events.(i);
          meta = meta32_of_ram (Bigarray.Array1.unsafe_get s.meta i);
        };
      incr j
    end
  done;
  Array.sort (fun (a : Segment.entry) b -> compare a.fp b.fp) arr;
  arr

let seg_max_depth entries =
  Array.fold_left (fun acc (e : Segment.entry) -> max acc (e.meta land d32_mask)) 0 entries

let merge_locked t s =
  let start_ns = if t.timed then Obs.Clock.monotonic_ns () else 0 in
  let old = s.segs in
  let n_old = List.length old in
  (* rank 0 = newest; on duplicate fingerprints the lowest rank (the
     shadow-updated copy) wins.  Transient memory is one shard's disk
     entries — 1/64 of the spilled total. *)
  let all =
    List.concat (List.mapi (fun r seg -> List.map (fun e -> (e, r)) (Array.to_list (Segment.entries seg))) old)
  in
  let arr = Array.of_list all in
  Array.sort
    (fun ((a : Segment.entry), ra) ((b : Segment.entry), rb) ->
      match compare a.fp b.fp with 0 -> compare ra rb | c -> c)
    arr;
  let kept = ref [] in
  let n_kept = ref 0 in
  Array.iter
    (fun ((e : Segment.entry), _) ->
      match !kept with
      | (prev : Segment.entry) :: _ when prev.fp = e.fp -> ()
      | _ ->
        kept := e :: !kept;
        incr n_kept)
    arr;
  let entries = Array.make !n_kept { Segment.fp = 0; parent = 0; event = 0; meta = 0 } in
  List.iteri (fun i e -> entries.(!n_kept - 1 - i) <- e) !kept;
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  let merged =
    Segment.write ~path:(seg_path t s seq) ~shard:s.id ~seq ~max_depth:(seg_max_depth entries)
      entries
  in
  s.segs <- [ merged ];
  s.merges <- s.merges + 1;
  List.iter (fun seg -> try Sys.remove (Segment.path seg) with Sys_error _ -> ()) old;
  if t.timed then
    t.hooks.on_merge ~shard:s.id ~segments:n_old ~entries:!n_kept ~start_ns
      ~stop_ns:(Obs.Clock.monotonic_ns ())

let freeze_locked t s =
  let start_ns = if t.timed then Obs.Clock.monotonic_ns () else 0 in
  let entries = dump_locked s in
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  let seg =
    Segment.write ~path:(seg_path t s seq) ~shard:s.id ~seq ~max_depth:(seg_max_depth entries)
      entries
  in
  s.segs <- seg :: s.segs;
  s.spills <- s.spills + 1;
  s.spilled_entries <- s.spilled_entries + Array.length entries;
  s.keys <- make_arr t.initial_cap;
  s.parents <- make_arr t.initial_cap;
  s.meta <- make_arr t.initial_cap;
  s.events <- Array.make t.initial_cap 0;
  s.count <- 0;
  if t.timed then
    t.hooks.on_spill ~shard:s.id ~entries:(Array.length entries) ~bytes:(Segment.disk_bytes seg)
      ~start_ns
      ~stop_ns:(Obs.Clock.monotonic_ns ());
  if List.length s.segs >= t.merge_fanout then merge_locked t s

let maybe_spill t s =
  if t.shard_budget > 0 && s.count * entry_bytes >= t.shard_budget then freeze_locked t s

(* Exact membership in the frozen tiers; caller locks.  Newest segment
   first, so a shadow-spilled copy wins over its stale ancestors. *)
let seg_find t s fp =
  let rec go = function
    | [] -> None
    | seg :: rest ->
      s.bloom_checks <- s.bloom_checks + 1;
      if not (Segment.maybe seg fp) then begin
        s.bloom_negatives <- s.bloom_negatives + 1;
        go rest
      end
      else begin
        s.disk_probes <- s.disk_probes + 1;
        let start_ns = if t.timed then Obs.Clock.monotonic_ns () else 0 in
        let r = Segment.find seg fp in
        if t.timed then
          t.hooks.on_disk_probe ~shard:s.id ~hit:(r <> None) ~start_ns
            ~stop_ns:(Obs.Clock.monotonic_ns ());
        match r with
        | Some e ->
          s.disk_hits <- s.disk_hits + 1;
          Some e
        | None -> go rest
      end
  in
  go s.segs

let add t fp ~parent ~event ~depth =
  let s = shard t fp in
  Obs.Contention.lock s.lock;
  let i = probe s.keys (Bigarray.Array1.dim s.keys) fp in
  let r =
    if Bigarray.Array1.unsafe_get s.keys i = fp then begin
      let m = Bigarray.Array1.unsafe_get s.meta i in
      if depth < m land depth_mask then begin
        Bigarray.Array1.unsafe_set s.meta i ((m land lnot depth_mask) lor depth);
        Bigarray.Array1.unsafe_set s.parents i parent;
        s.events.(i) <- event;
        Improved (((m lsr viol_shift) land viol_mask) - 1)
      end
      else Stale
    end
    else begin
      match seg_find t s fp with
      | Some e ->
        let m = ram_of_meta32 e.Segment.meta in
        if depth < m land depth_mask then begin
          (* shadow-insert the improved copy; tier 0 is consulted first,
             so the stale disk copy is dead until a merge collects it *)
          tier0_insert s fp ~parent ~event ~meta:((m land lnot depth_mask) lor depth);
          maybe_spill t s;
          Improved (((m lsr viol_shift) land viol_mask) - 1)
        end
        else Stale
      | None ->
        tier0_insert s fp ~parent ~event ~meta:depth;
        s.distinct <- s.distinct + 1;
        maybe_spill t s;
        Fresh
    end
  in
  Obs.Contention.unlock s.lock;
  r

let mark_violation t fp idx =
  let s = shard t fp in
  Obs.Contention.lock s.lock;
  let i = probe s.keys (Bigarray.Array1.dim s.keys) fp in
  if Bigarray.Array1.unsafe_get s.keys i = fp then begin
    let m = Bigarray.Array1.unsafe_get s.meta i in
    Bigarray.Array1.unsafe_set s.meta i
      ((m land lnot (viol_mask lsl viol_shift)) lor ((idx + 1) lsl viol_shift))
  end
  else begin
    match seg_find t s fp with
    | Some e ->
      let m = ram_of_meta32 e.Segment.meta in
      tier0_insert s fp ~parent:e.Segment.parent ~event:e.Segment.event
        ~meta:((m land lnot (viol_mask lsl viol_shift)) lor ((idx + 1) lsl viol_shift));
      maybe_spill t s
    | None -> ()
  end;
  Obs.Contention.unlock s.lock

let begin_expand t fp ~depth =
  let s = shard t fp in
  Obs.Contention.lock s.lock;
  let i = probe s.keys (Bigarray.Array1.dim s.keys) fp in
  let r =
    if Bigarray.Array1.unsafe_get s.keys i = fp then begin
      let m = Bigarray.Array1.unsafe_get s.meta i in
      let d = m land depth_mask in
      if d < depth then `Stale
      else if m land expanded_bit = 0 then begin
        Bigarray.Array1.unsafe_set s.meta i (m lor expanded_bit);
        `First d
      end
      else `Again d
    end
    else begin
      match seg_find t s fp with
      | Some e ->
        let m = ram_of_meta32 e.Segment.meta in
        let d = m land depth_mask in
        if d < depth then `Stale
        else if m land expanded_bit = 0 then begin
          tier0_insert s fp ~parent:e.Segment.parent ~event:e.Segment.event
            ~meta:(m lor expanded_bit);
          maybe_spill t s;
          `First d
        end
        else `Again d
      | None -> `Stale
    end
  in
  Obs.Contention.unlock s.lock;
  r

let find t fp =
  let s = shard t fp in
  Obs.Contention.lock s.lock;
  let i = probe s.keys (Bigarray.Array1.dim s.keys) fp in
  let r =
    if Bigarray.Array1.unsafe_get s.keys i = fp then
      Some (Bigarray.Array1.unsafe_get s.parents i, s.events.(i))
    else
      match seg_find t s fp with
      | Some e -> Some (e.Segment.parent, e.Segment.event)
      | None -> None
  in
  Obs.Contention.unlock s.lock;
  r

let depth_of t fp =
  let s = shard t fp in
  Obs.Contention.lock s.lock;
  let i = probe s.keys (Bigarray.Array1.dim s.keys) fp in
  let r =
    if Bigarray.Array1.unsafe_get s.keys i = fp then
      Some (Bigarray.Array1.unsafe_get s.meta i land depth_mask)
    else
      match seg_find t s fp with
      | Some e -> Some (ram_of_meta32 e.Segment.meta land depth_mask)
      | None -> None
  in
  Obs.Contention.unlock s.lock;
  r

let count t = Array.fold_left (fun acc s -> acc + s.distinct) 0 t.shards
let capacity t = Array.fold_left (fun acc s -> acc + Bigarray.Array1.dim s.keys) 0 t.shards

let max_depth t =
  let best = ref 0 in
  Array.iter
    (fun s ->
      for i = 0 to Bigarray.Array1.dim s.keys - 1 do
        if Bigarray.Array1.unsafe_get s.keys i <> 0 then
          best := max !best (Bigarray.Array1.unsafe_get s.meta i land depth_mask)
      done;
      List.iter (fun seg -> best := max !best (Segment.max_depth seg)) s.segs)
    t.shards;
  !best

let locks t = Array.map (fun s -> s.lock) t.shards
let resident_bytes t = Array.fold_left (fun acc s -> acc + (s.count * entry_bytes)) 0 t.shards
let resident_bytes_per_shard t = Array.map (fun s -> s.count * entry_bytes) t.shards

let stats t =
  Array.fold_left
    (fun (acc : stats) s ->
      let seg_disk = List.fold_left (fun a seg -> a + Segment.disk_bytes seg) 0 s.segs in
      let seg_mem = List.fold_left (fun a seg -> a + Segment.mem_bytes seg) 0 s.segs in
      {
        spills = acc.spills + s.spills;
        merges = acc.merges + s.merges;
        segments = acc.segments + List.length s.segs;
        spilled_entries = acc.spilled_entries + s.spilled_entries;
        disk_probes = acc.disk_probes + s.disk_probes;
        disk_hits = acc.disk_hits + s.disk_hits;
        bloom_checks = acc.bloom_checks + s.bloom_checks;
        bloom_negatives = acc.bloom_negatives + s.bloom_negatives;
        resident_entries = acc.resident_entries + s.count;
        resident_bytes = acc.resident_bytes + (s.count * entry_bytes);
        peak_resident_bytes = acc.peak_resident_bytes + s.peak_bytes;
        disk_bytes = acc.disk_bytes + seg_disk;
        segment_mem_bytes = acc.segment_mem_bytes + seg_mem;
      })
    {
      spills = 0;
      merges = 0;
      segments = 0;
      spilled_entries = 0;
      disk_probes = 0;
      disk_hits = 0;
      bloom_checks = 0;
      bloom_negatives = 0;
      resident_entries = 0;
      resident_bytes = 0;
      peak_resident_bytes = 0;
      disk_bytes = 0;
      segment_mem_bytes = 0;
    }
    t.shards

(* -- checkpoint support ---------------------------------------------------- *)

let meta32_depth m = m land d32_mask
let meta32_violation m = ((m lsr v32_shift) land v32_mask) - 1
let meta32_expanded m = m land x32_bit <> 0
let meta32_make ~depth ~violation =
  if depth > d32_mask then invalid_arg "Tiered.meta32_make: depth too large";
  if violation > max_violation_index then
    invalid_arg "Tiered.meta32_make: violation index too large";
  (depth land d32_mask) lor ((violation + 1) lsl v32_shift) lor x32_bit

let tier0_dump t ~shard =
  let s = t.shards.(shard) in
  Obs.Contention.with_lock s.lock (fun () -> dump_locked s)

let segments_of t ~shard =
  let s = t.shards.(shard) in
  Obs.Contention.with_lock s.lock (fun () -> s.segs)

let shard_meta t ~shard =
  let s = t.shards.(shard) in
  Obs.Contention.with_lock s.lock (fun () -> (s.distinct, s.next_seq))

let restore_shard t ~shard ~distinct ~next_seq ~tier0 ~segs =
  let s = t.shards.(shard) in
  Obs.Contention.with_lock s.lock (fun () ->
      Array.iter
        (fun (e : Segment.entry) ->
          tier0_insert s e.fp ~parent:e.parent ~event:e.event ~meta:(ram_of_meta32 e.meta))
        tier0;
      s.segs <- segs;
      s.distinct <- distinct;
      s.next_seq <- next_seq)
