(* The --obs=live TTY dashboard; see dashboard.mli. *)

type mode = Ansi | Plain

type t = {
  mode : mode;
  out : string -> unit;
  started_ns : int;
  mutable checker : string;
  mutable progress : int;  (* states (explore) or steps (walk) *)
  mutable rate : float;  (* overall states/s, from the newest heartbeat *)
  mutable frontier : int;
  mutable max_states : int;  (* 0 = unknown *)
  mutable dom_rate : float array;  (* per-domain states/s *)
  mutable shard_heat : float array;  (* per-shard share of total lock wait *)
  mutable lock_wait_pct : float;  (* lock wait as % of aggregate busy time *)
  mutable serial_fraction : float;  (* < 0 = unknown *)
  mutable bytes_resident : int;  (* tiered-store tier-0 occupancy; < 0 = unknown *)
  mutable mem_budget : int;  (* 0 = unbounded (all-RAM) *)
  mutable segments : int;  (* on-disk segment files; < 0 = unknown *)
  mutable spilled_states : int;  (* states only on disk; < 0 = unknown *)
  mutable verdict : string option;
  (* runtime panel (fed by runtime-heartbeat records) *)
  mutable rt_on : bool;
  mutable rt_cycles : int;
  mutable rt_live : int;
  mutable rt_alloc_rate : float;
  mutable rt_stalls : int;
  mutable rt_pause_p50 : int;  (* ns; < 0 = unknown *)
  mutable rt_pause_p99 : int;
  mutable rt_pause_max : int;
  mutable rt_hs_p50 : int;
  mutable rt_hs_p99 : int;
  mutable rt_hs_p999 : int;
  mutable rt_hs_max : int;
  mutable rt_ack_hist : float array list;
    (* newest-first heartbeat history of per-mutator ack p99s (ns);
       rendered as one sparkline per mutator *)
  mutable drawn : int;  (* lines on screen from the previous draw *)
  mutable last_draw_ns : int;
  mutable finished : bool;
}

let rt_hist_len = 24

let detect_mode () =
  let term = match Sys.getenv_opt "TERM" with Some t -> t | None -> "" in
  if (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false) && term <> "dumb" && term <> ""
  then Ansi
  else Plain

let create ?mode ?(out = fun s -> output_string stderr s; flush stderr) () =
  let mode = match mode with Some m -> m | None -> detect_mode () in
  {
    mode;
    out;
    started_ns = Clock.monotonic_ns ();
    checker = "";
    progress = 0;
    rate = 0.;
    frontier = -1;
    max_states = 0;
    dom_rate = [||];
    shard_heat = [||];
    lock_wait_pct = 0.;
    serial_fraction = -1.;
    bytes_resident = -1;
    mem_budget = 0;
    segments = -1;
    spilled_states = -1;
    verdict = None;
    rt_on = false;
    rt_cycles = 0;
    rt_live = 0;
    rt_alloc_rate = 0.;
    rt_stalls = 0;
    rt_pause_p50 = -1;
    rt_pause_p99 = -1;
    rt_pause_max = -1;
    rt_hs_p50 = -1;
    rt_hs_p99 = -1;
    rt_hs_p999 = -1;
    rt_hs_max = -1;
    rt_ack_hist = [];
    drawn = 0;
    last_draw_ns = 0;
    finished = false;
  }

(* -- rendering ---------------------------------------------------------------- *)

let human n =
  if n >= 10_000_000 then Fmt.str "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Fmt.str "%.0fk" (float_of_int n /. 1e3)
  else string_of_int n

let bar width frac =
  let frac = Float.max 0. (Float.min 1. frac) in
  let full = int_of_float (frac *. float_of_int width) in
  String.init width (fun i -> if i < full then '#' else '.')

let human_bytes n =
  if n >= 1 lsl 30 then Fmt.str "%.1fG" (float_of_int n /. float_of_int (1 lsl 30))
  else if n >= 1 lsl 20 then Fmt.str "%.1fM" (float_of_int n /. float_of_int (1 lsl 20))
  else if n >= 1 lsl 10 then Fmt.str "%.1fk" (float_of_int n /. float_of_int (1 lsl 10))
  else Fmt.str "%dB" n

let human_ns n =
  if n < 0 then "?"
  else if n < 1_000 then Fmt.str "%dns" n
  else if n < 1_000_000 then Fmt.str "%.1fus" (float_of_int n /. 1e3)
  else if n < 1_000_000_000 then Fmt.str "%.1fms" (float_of_int n /. 1e6)
  else Fmt.str "%.2fs" (float_of_int n /. 1e9)

let heat_glyphs = " .:-=+*#%@"

let heat_string heat =
  String.init (Array.length heat) (fun i ->
      let h = Float.max 0. (Float.min 1. heat.(i)) in
      heat_glyphs.[min (String.length heat_glyphs - 1)
                     (int_of_float (h *. float_of_int (String.length heat_glyphs - 1) +. 0.5))])

let eta t =
  if t.max_states > 0 && t.rate > 1. && t.progress < t.max_states then begin
    let s = float_of_int (t.max_states - t.progress) /. t.rate in
    if s < 6000. then Fmt.str "  ETA vs cap %02d:%02d" (int_of_float s / 60) (int_of_float s mod 60)
    else "  ETA vs cap >99min"
  end
  else ""

let panel_lines t =
  let elapsed = Clock.elapsed_s ~since:t.started_ns in
  let head =
    Fmt.str "%s  +%.1fs  %s states  %.0f/s%s%s%s"
      (if t.checker = "" then "checker" else t.checker)
      elapsed (human t.progress) t.rate
      (if t.frontier >= 0 then Fmt.str "  frontier %s" (human t.frontier) else "")
      (eta t)
      (match t.verdict with None -> "" | Some v -> "  " ^ v)
  in
  let doms =
    List.filteri (fun _ _ -> Array.length t.dom_rate > 1)
      (List.init (Array.length t.dom_rate) (fun d ->
           let share = if t.rate > 0. then t.dom_rate.(d) /. t.rate else 0. in
           Fmt.str "  dom %d [%s] %7.0f/s" d (bar 20 share) t.dom_rate.(d)))
  in
  let shards =
    if Array.length t.shard_heat = 0 then []
    else
      [
        Fmt.str "  shards [%s]  lock-wait %.1f%%%s" (heat_string t.shard_heat) t.lock_wait_pct
          (if t.serial_fraction >= 0. then Fmt.str "  serial-frac %.2f" t.serial_fraction else "");
      ]
  in
  (* tiered-store panel: only once a run reports store occupancy, and
     only interesting when a budget bounds it or something has spilled *)
  let store =
    if t.bytes_resident >= 0 && (t.mem_budget > 0 || t.segments > 0) then
      [
        Fmt.str "  store  %s%s resident%s%s"
          (human_bytes t.bytes_resident)
          (if t.mem_budget > 0 then
             Fmt.str "/%s (%s)" (human_bytes t.mem_budget)
               (bar 20 (float_of_int t.bytes_resident /. float_of_int t.mem_budget))
           else "")
          (if t.segments > 0 then Fmt.str "  segments %d" t.segments else "")
          (if t.spilled_states > 0 then Fmt.str "  spilled %s states" (human t.spilled_states)
           else "");
      ]
    else []
  in
  (* runtime panel: pause bar (p99 against worst observed), handshake
     percentiles, and one ack sparkline per mutator over the heartbeat
     history *)
  let runtime =
    if not t.rt_on then []
    else begin
      let rt_head =
        Fmt.str "runtime  +%.1fs  cycles %s  live %s  alloc %.0f/s  stalls %d%s" elapsed
          (human t.rt_cycles) (human t.rt_live) t.rt_alloc_rate t.rt_stalls
          (if t.checker = "" then
             match t.verdict with None -> "" | Some v -> "  " ^ v
           else "")
      in
      let pause =
        if t.rt_pause_p99 < 0 then []
        else
          [
            Fmt.str "  pause  [%s]  p50 %s  p99 %s  max %s"
              (bar 20
                 (if t.rt_pause_max > 0 then
                    float_of_int t.rt_pause_p99 /. float_of_int t.rt_pause_max
                  else 0.))
              (human_ns t.rt_pause_p50) (human_ns t.rt_pause_p99) (human_ns t.rt_pause_max);
          ]
      in
      let hs =
        if t.rt_hs_p50 < 0 then []
        else
          [
            Fmt.str "  hs     p50 %s  p99 %s  p99.9 %s  max %s" (human_ns t.rt_hs_p50)
              (human_ns t.rt_hs_p99) (human_ns t.rt_hs_p999) (human_ns t.rt_hs_max);
          ]
      in
      let n_muts = match t.rt_ack_hist with [] -> 0 | h :: _ -> Array.length h in
      let acks =
        List.init n_muts (fun m ->
            let series =
              List.rev_map
                (fun a -> if m < Array.length a then a.(m) else 0.)
                t.rt_ack_hist
            in
            let worst = List.fold_left Float.max 1. series in
            let spark =
              heat_string (Array.of_list (List.map (fun v -> v /. worst) series))
            in
            let last = match List.rev series with v :: _ -> v | [] -> 0. in
            Fmt.str "  mut %d  ack [%s]  p99 %s" m spark (human_ns (int_of_float last)))
      in
      (rt_head :: pause) @ hs @ acks
    end
  in
  (* a pure runtime run has no checker telemetry: show only its panel *)
  if t.rt_on && t.checker = "" && t.progress = 0 then runtime
  else head :: (doms @ shards @ store @ runtime)

let draw ?(force = false) t =
  if not t.finished then begin
    let now = Clock.monotonic_ns () in
    let min_interval = match t.mode with Ansi -> 100_000_000 | Plain -> 1_000_000_000 in
    if force || now - t.last_draw_ns >= min_interval then begin
      t.last_draw_ns <- now;
      let lines = panel_lines t in
      match t.mode with
      | Ansi ->
        let b = Buffer.create 256 in
        if t.drawn > 0 then Buffer.add_string b (Fmt.str "\027[%dA" t.drawn);
        List.iter
          (fun l ->
            Buffer.add_string b "\027[2K";
            Buffer.add_string b l;
            Buffer.add_char b '\n')
          lines;
        (* previous draw had more lines: blank the leftovers *)
        let extra = t.drawn - List.length lines in
        if extra > 0 then begin
          for _ = 1 to extra do
            Buffer.add_string b "\027[2K\n"
          done;
          Buffer.add_string b (Fmt.str "\027[%dA" extra)
        end;
        t.drawn <- List.length lines;
        t.out (Buffer.contents b)
      | Plain -> t.out (String.concat "\n" lines ^ "\n")
    end
  end

(* -- record intake ------------------------------------------------------------ *)

let ffield fields k = Option.bind (List.assoc_opt k fields) Json.to_float
let ifield fields k = Option.bind (List.assoc_opt k fields) Json.to_int
let sfield fields k = Option.bind (List.assoc_opt k fields) Json.to_string_opt

let ensure_dom t d =
  if d >= Array.length t.dom_rate then begin
    let r = Array.make (d + 1) 0. in
    Array.blit t.dom_rate 0 r 0 (Array.length t.dom_rate);
    t.dom_rate <- r
  end

let float_list fields k =
  match List.assoc_opt k fields with
  | Some (Json.List l) -> Some (Array.of_list (List.filter_map Json.to_float l))
  | _ -> None

let update t event fields =
  if not t.finished then begin
    (match event with
    | "heartbeat" ->
      Option.iter (fun c -> t.checker <- c) (sfield fields "checker");
      (match ifield fields "states" with
      | Some s -> t.progress <- max t.progress s
      | None -> Option.iter (fun s -> t.progress <- max t.progress s) (ifield fields "steps"));
      Option.iter (fun f -> t.frontier <- f) (ifield fields "frontier");
      Option.iter (fun m -> t.max_states <- m) (ifield fields "max_states");
      let rate =
        match ffield fields "states_per_sec" with
        | Some r -> Some r
        | None -> ffield fields "steps_per_sec"
      in
      Option.iter (fun b -> t.bytes_resident <- b) (ifield fields "bytes_resident");
      Option.iter (fun b -> t.mem_budget <- b) (ifield fields "mem_budget");
      Option.iter (fun s -> t.segments <- s) (ifield fields "segments");
      Option.iter (fun s -> t.spilled_states <- s) (ifield fields "spilled_states");
      (match (ifield fields "domain", rate) with
      | Some d, Some r ->
        ensure_dom t d;
        t.dom_rate.(d) <- r;
        t.rate <- Array.fold_left ( +. ) 0. t.dom_rate
      | None, Some r -> t.rate <- r
      | _ -> ())
    | "scaling-detail" ->
      Option.iter
        (fun w ->
          let total = Array.fold_left ( +. ) 0. w in
          if total > 0. then t.shard_heat <- Array.map (fun x -> x /. total) w)
        (float_list fields "shard_wait_s");
      (match (ffield fields "lock_wait_s", ffield fields "busy_s") with
      | Some lw, Some busy when busy > 0. -> t.lock_wait_pct <- 100. *. lw /. busy
      | _ -> ());
      Option.iter (fun f -> t.serial_fraction <- f) (ffield fields "serial_fraction")
    | "outcome" ->
      Option.iter (fun c -> t.checker <- c) (sfield fields "checker");
      (match ifield fields "states" with
      | Some s -> t.progress <- max t.progress s
      | None -> Option.iter (fun s -> t.progress <- max t.progress s) (ifield fields "steps"));
      t.verdict <-
        Some
          (match List.assoc_opt "violation" fields with
          | Some (Json.String v) -> "VIOLATION: " ^ v
          | _ -> "ok")
    | "runtime-heartbeat" ->
      t.rt_on <- true;
      Option.iter (fun c -> t.rt_cycles <- c) (ifield fields "cycles");
      Option.iter (fun l -> t.rt_live <- l) (ifield fields "live");
      Option.iter (fun r -> t.rt_alloc_rate <- r) (ffield fields "alloc_per_sec");
      Option.iter (fun s -> t.rt_stalls <- s) (ifield fields "alloc_stalls");
      let sub k = match List.assoc_opt k fields with Some (Json.Obj o) -> o | _ -> [] in
      let pause = sub "pause" and hs = sub "hs" in
      Option.iter (fun v -> t.rt_pause_p50 <- v) (ifield pause "p50_ns");
      Option.iter (fun v -> t.rt_pause_p99 <- v) (ifield pause "p99_ns");
      Option.iter (fun v -> t.rt_pause_max <- v) (ifield pause "max_ns");
      Option.iter (fun v -> t.rt_hs_p50 <- v) (ifield hs "p50_ns");
      Option.iter (fun v -> t.rt_hs_p99 <- v) (ifield hs "p99_ns");
      Option.iter (fun v -> t.rt_hs_p999 <- v) (ifield hs "p999_ns");
      Option.iter (fun v -> t.rt_hs_max <- v) (ifield hs "max_ns");
      (match List.assoc_opt "hs_ack_p99_ns" fields with
      | Some (Json.List l) ->
        let acks =
          Array.of_list
            (List.map (fun j -> match Json.to_float j with Some f -> f | None -> 0.) l)
        in
        t.rt_ack_hist <-
          acks :: (if List.length t.rt_ack_hist >= rt_hist_len then
                     List.filteri (fun i _ -> i < rt_hist_len - 1) t.rt_ack_hist
                   else t.rt_ack_hist)
      | _ -> ())
    | "harness" ->
      t.rt_on <- true;
      Option.iter (fun c -> t.rt_cycles <- c) (ifield fields "cycles");
      Option.iter (fun l -> t.rt_live <- l) (ifield fields "live_at_end");
      t.verdict <-
        Some
          (match List.assoc_opt "violation" fields with
          | Some (Json.String v) -> "UNSAFE: " ^ v
          | _ -> "SAFE")
    | _ -> ());
    draw ~force:(event = "outcome" || event = "harness") t
  end

let finish t =
  if not t.finished then begin
    draw ~force:true t;
    t.finished <- true
  end
