(* The tricolor interpretation of Section 3.2 ("Collector Predicates and
   Invariants"), including its two TSO-induced subtleties:

   - an object is *white* if it is not marked on the (committed) heap,
     *grey* if it is on some work-list or is some process's
     ghost_honorary_grey, and *black* if it is marked and not grey;
   - the colours overlap: during a winning CAS an object can be white
     (mark still in the winner's store buffer) and grey (ghost honorary
     grey) at once, and without the ghost it would look black between the
     CAS and the work-list insertion.

   Marks are interpreted against the committed memory's f_M sense.  Each
   function below builds the grey set at most once per call. *)

open State

(* All grey references: work-lists of every software process plus the ghost
   honorary greys. *)
let greys cfg sd =
  let n = Config.n_software cfg in
  let wl = List.concat (List.filteri (fun p _ -> p < n) sd.s_W) in
  let ghg = List.filter_map Fun.id sd.s_ghg in
  List.sort_uniq compare (wl @ ghg)

let is_grey cfg sd r = List.mem r (greys cfg sd)

(* Marked on the heap w.r.t. the committed sense of f_M. *)
let is_marked sd r =
  match Gcheap.Heap.mark sd.s_mem.heap r with Some b -> b = sd.s_mem.fM | None -> false

let is_white sd r =
  match Gcheap.Heap.mark sd.s_mem.heap r with Some b -> b <> sd.s_mem.fM | None -> false

let is_black cfg sd r = is_marked sd r && not (is_grey cfg sd r)

let whites sd = Gcheap.Heap.marked_with sd.s_mem.heap (not sd.s_mem.fM)
let marked sd = Gcheap.Heap.marked_with sd.s_mem.heap sd.s_mem.fM

let blacks cfg sd =
  match marked sd with
  | [] -> []
  | marked ->
    let greys = greys cfg sd in
    List.filter (fun r -> not (List.mem r greys)) marked

(* Grey-protected whites: white objects reachable from some grey via a
   chain of zero or more white objects (Fig. 1). *)
let grey_protected_whites cfg sd =
  let white r = is_white sd r in
  let protected_set =
    Gcheap.Reach.white_reachable_set sd.s_mem.heap ~white (greys cfg sd)
  in
  List.filter white protected_set

let is_grey_protected cfg sd r = is_white sd r && List.mem r (grey_protected_whites cfg sd)
