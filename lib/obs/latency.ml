(* HDR-style log-bucketed concurrent latency histograms.  See latency.mli
   for the design rationale; the short version: exact counts in ~2%-wide
   log buckets, per-domain lock-free lanes merged at snapshot, optional
   coordinated-omission back-fill for periodic operations. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 linear sub-buckets per power of two *)
let clamp_ns = 100_000_000_000 (* 100 s: top of the covered range *)

(* Number of significant bits of [v] (>= 1); branchy but allocation-free. *)
let bit_length v =
  let n = ref 0 and x = ref v in
  if !x lsr 32 <> 0 then (n := !n + 32; x := !x lsr 32);
  if !x lsr 16 <> 0 then (n := !n + 16; x := !x lsr 16);
  if !x lsr 8 <> 0 then (n := !n + 8; x := !x lsr 8);
  if !x lsr 4 <> 0 then (n := !n + 4; x := !x lsr 4);
  if !x lsr 2 <> 0 then (n := !n + 2; x := !x lsr 2);
  if !x lsr 1 <> 0 then (n := !n + 1; x := !x lsr 1);
  !n + !x

let bucket_of v =
  let v = if v < 0 then 0 else if v > clamp_ns then clamp_ns else v in
  if v < sub_count then v
  else
    let shift = bit_length v - (sub_bits + 1) in
    let sub = v lsr shift in
    (* sub in [32, 64) *)
    ((shift + 1) lsl sub_bits) + (sub - sub_count)

let n_buckets = bucket_of clamp_ns + 1

let representative i =
  if i < sub_count then i
  else
    let shift = (i lsr sub_bits) - 1 in
    let low = (sub_count + (i land (sub_count - 1))) lsl shift in
    if shift = 0 then low else low + (1 lsl (shift - 1))

type lane = {
  counts : int Atomic.t array;
  sum : int Atomic.t;
  lmin : int Atomic.t; (* max_int when empty *)
  lmax : int Atomic.t; (* -1 when empty *)
}

type t = { hname : string; lanes : lane option Atomic.t array }

let fresh_lane () =
  {
    counts = Array.init n_buckets (fun _ -> Atomic.make 0);
    sum = Atomic.make 0;
    lmin = Atomic.make max_int;
    lmax = Atomic.make (-1);
  }

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(lanes = 8) hname =
  let n = round_pow2 (max 1 lanes) in
  { hname; lanes = Array.init n (fun _ -> Atomic.make None) }

let name t = t.hname

(* Lanes are allocated on first use so a single-writer histogram costs
   one bucket array, not eight.  Losing the install race just means
   recording into the winner's lane. *)
let my_lane t =
  let slot = t.lanes.((Domain.self () :> int) land (Array.length t.lanes - 1)) in
  match Atomic.get slot with
  | Some l -> l
  | None ->
      let l = fresh_lane () in
      if Atomic.compare_and_set slot None (Some l) then l
      else match Atomic.get slot with Some l -> l | None -> assert false

let record t v =
  let v = if v < 0 then 0 else v in
  let lane = my_lane t in
  ignore (Atomic.fetch_and_add lane.counts.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add lane.sum v);
  let rec down () =
    let m = Atomic.get lane.lmin in
    if v < m && not (Atomic.compare_and_set lane.lmin m v) then down ()
  in
  let rec up () =
    let m = Atomic.get lane.lmax in
    if v > m && not (Atomic.compare_and_set lane.lmax m v) then up ()
  in
  down ();
  up ()

let record_corrected t ~expected_interval_ns v =
  record t v;
  if expected_interval_ns > 0 then begin
    let missing = ref (v - expected_interval_ns) in
    while !missing >= expected_interval_ns do
      record t !missing;
      missing := !missing - expected_interval_ns
    done
  end

let fold_lanes t f acc =
  Array.fold_left
    (fun acc slot ->
      match Atomic.get slot with None -> acc | Some l -> f acc l)
    acc t.lanes

(* Merged bucket counts plus exact (count, sum, min, max). *)
let merged t =
  let buckets = Array.make n_buckets 0 in
  let count, sum, mn, mx =
    fold_lanes t
      (fun (c, s, mn, mx) l ->
        let c = ref c in
        Array.iteri
          (fun i a ->
            let n = Atomic.get a in
            buckets.(i) <- buckets.(i) + n;
            c := !c + n)
          l.counts;
        ( !c,
          s + Atomic.get l.sum,
          min mn (Atomic.get l.lmin),
          max mx (Atomic.get l.lmax) ))
      (0, 0, max_int, -1)
  in
  (buckets, count, sum, mn, mx)

let count t = let _, c, _, _, _ = merged t in c

let percentile_merged buckets total mn mx p =
  if total = 0 then None
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int total)) in
      max 1 (min total r)
    in
    let cum = ref 0 and i = ref 0 and res = ref mx in
    (try
       while !i < n_buckets do
         cum := !cum + buckets.(!i);
         if !cum >= rank then begin
           res := representative !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    (* Representatives are bucket midpoints and can stick out past the
       observed extremes; clamp so p0 >= min and p100 <= max. *)
    Some (max mn (min mx !res))
  end

let percentile t p =
  let buckets, total, _, mn, mx = merged t in
  percentile_merged buckets total mn mx p

let min_ns t =
  let _, total, _, mn, _ = merged t in
  if total = 0 then None else Some mn

let max_ns t =
  let _, total, _, _, mx = merged t in
  if total = 0 then None else Some mx

type snapshot = {
  count : int;
  mean_ns : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  p999_ns : int;
  min_ns : int;
  max_ns : int;
}

let snapshot t =
  let buckets, total, sum, mn, mx = merged t in
  if total = 0 then None
  else
    let pct p =
      match percentile_merged buckets total mn mx p with
      | Some v -> v
      | None -> 0
    in
    Some
      {
        count = total;
        mean_ns = float_of_int sum /. float_of_int total;
        p50_ns = pct 50.;
        p90_ns = pct 90.;
        p99_ns = pct 99.;
        p999_ns = pct 99.9;
        min_ns = mn;
        max_ns = mx;
      }

let to_json t =
  match snapshot t with
  | None ->
      Json.Obj
        [
          ("count", Json.Int 0);
          ("mean_ns", Json.Null);
          ("p50_ns", Json.Null);
          ("p90_ns", Json.Null);
          ("p99_ns", Json.Null);
          ("p999_ns", Json.Null);
          ("min_ns", Json.Null);
          ("max_ns", Json.Null);
        ]
  | Some s ->
      Json.Obj
        [
          ("count", Json.Int s.count);
          ("mean_ns", Json.Float s.mean_ns);
          ("p50_ns", Json.Int s.p50_ns);
          ("p90_ns", Json.Int s.p90_ns);
          ("p99_ns", Json.Int s.p99_ns);
          ("p999_ns", Json.Int s.p999_ns);
          ("min_ns", Json.Int s.min_ns);
          ("max_ns", Json.Int s.max_ns);
        ]
