(* Per-invariant eval counts and cumulative time on the monotonic clock.
   See inv_stats.mli. *)

type 'sys t = {
  check : 'sys -> string option;
  counts : unit -> (string * int * float) array;
}

let plain invariants =
  {
    check =
      (fun sys ->
        match List.find_opt (fun (_, p) -> not (p sys)) invariants with
        | None -> None
        | Some (name, _) -> Some name);
    counts = (fun () -> [||]);
  }

let instrumented invariants =
  let invs = Array.of_list invariants in
  let n = Array.length invs in
  let evals = Array.make n 0 in
  let time_ns = Array.make n 0 in
  let check sys =
    let rec go i =
      if i >= n then None
      else begin
        let name, p = invs.(i) in
        let t = Obs.Clock.monotonic_ns () in
        let ok = p sys in
        time_ns.(i) <- time_ns.(i) + (Obs.Clock.monotonic_ns () - t);
        evals.(i) <- evals.(i) + 1;
        if ok then go (i + 1) else Some name
      end
    in
    go 0
  in
  {
    check;
    counts =
      (fun () -> Array.mapi (fun i (name, _) -> (name, evals.(i), Obs.Clock.ns_to_s time_ns.(i))) invs);
  }

let make ~obs invariants =
  if Obs.Reporter.enabled obs then instrumented invariants else plain invariants

(* Per-invariant sums over the given accountants, which all share one
   catalogue (one per worker domain). *)
let summed ivs =
  match List.map (fun iv -> iv.counts ()) ivs with
  | [] -> [||]
  | c :: rest ->
    List.fold_left
      (Array.map2 (fun (name, n, t) (_, n', t') -> (name, n + n', t +. t')))
      c rest

let report obs ~first_violation ivs =
  Array.iter
    (fun (name, evals, time) ->
      Obs.Reporter.emit obs "invariant"
        [
          ("name", Obs.Json.String name);
          ("evals", Obs.Json.Int evals);
          ("time_s", Obs.Json.Float time);
          ("violated", Obs.Json.Bool (first_violation = Some name));
        ])
    (summed ivs)

let totals ivs =
  Array.fold_left (fun (n, t) (_, n', t') -> (n + n', t +. t')) (0, 0.) (summed ivs)
