(** Wish-loop predictor (paper Section 3.2): "a specialized wish loop
    predictor can be designed to predict wish loop instructions. This
    predictor does not have to exactly predict the iteration count of a
    loop. It can be biased to overestimate the iteration count of a loop to
    make the late-exit case more common than the early-exit case."

    Per static loop branch we track the taken-run length ("trip") of each
    visit. Loops with repeating trips are predicted exactly (the Sherwood &
    Calder loop-termination idea); loops with variable trips are predicted
    to iterate until a slowly-decaying maximum of recent trips plus a bias —
    deliberate overestimation, so a front end in low-confidence mode exits
    one short phantom tail after the real exit (late-exit) instead of
    undershooting into a pipeline flush (early-exit). *)

type entry = {
  mutable last_trip : int; (* taken-count of the last completed visit *)
  mutable ema8 : int; (* exponential moving average of trips, x8 fixed point *)
  mutable conf : int; (* confidence that last_trip repeats *)
  mutable current : int; (* retired taken-count of the visit in flight *)
  mutable spec_count : int; (* fetched taken-count of the current visit *)
  mutable trained : bool;
}

type t = { table : (int, entry) Hashtbl.t; bias : int; conf_threshold : int }

let create ?(bias = 3) ?(conf_threshold = 2) () =
  { table = Hashtbl.create 64; bias; conf_threshold }

let entry t pc =
  match Hashtbl.find t.table pc with
  | e -> e
  | exception Not_found ->
    let e = { last_trip = 0; ema8 = 0; conf = 0; current = 0; spec_count = 0; trained = false } in
    Hashtbl.add t.table pc e;
    e

(* Prediction codes. Exact: the loop has a stable trip count and the
   prediction is trustworthy in any mode. Biased: a deliberate
   overestimate, only useful in low-confidence (predicated) mode where a
   late exit costs a short phantom tail instead of a flush. The [_t]/[_f]
   suffix is the predicted direction (taken = keep iterating). *)
let p_none = 0
and p_exact_f = 1
and p_exact_t = 2
and p_biased_f = 3
and p_biased_t = 4

(** [predict_code t ~pc] — one of the [p_*] codes above. *)
let predict_code t ~pc =
  let e = entry t pc in
  if not e.trained then p_none
  else if e.conf >= t.conf_threshold then
    if e.spec_count < e.last_trip then p_exact_t else p_exact_f
  else if e.spec_count < (e.ema8 / 8) + t.bias then p_biased_t
  else p_biased_f

(** [spec_iterate t ~pc ~taken] advances the front-end visit view. *)
let spec_iterate t ~pc ~taken =
  let e = entry t pc in
  if taken then e.spec_count <- e.spec_count + 1 else e.spec_count <- 0

(** [squash_all t] rewinds every front-end view to retirement state. *)
let squash_all t = Hashtbl.iter (fun _ e -> e.spec_count <- e.current) t.table

(* One retired outcome applied to an already-resolved entry. *)
let train_entry e ~taken =
  if taken then e.current <- e.current + 1
  else begin
    let trip = e.current in
    if e.trained && trip = e.last_trip then e.conf <- Int.min 3 (e.conf + 1) else e.conf <- 0;
    e.last_trip <- trip;
    (* Moving average of trip counts: with the bias this overshoots the
       typical visit by a couple of iterations (cheap late-exits) without
       chasing the distribution's tail (which would fetch long phantom
       runs). Tail visits undershoot and pay an early-exit flush — exactly
       what a normal branch would have paid. *)
    e.ema8 <- e.ema8 + ((8 * trip) - e.ema8) / 4;
    e.trained <- true;
    e.current <- 0
  end

(** [train t ~pc ~taken] consumes a retired loop-branch outcome. *)
let train t ~pc ~taken = train_entry (entry t pc) ~taken

(** [warm_entry e ~taken] — functional-warming update of a resolved
    entry: train on the architectural outcome and keep the speculative
    view pinned to the retirement view (there is no front end running
    ahead while warming). Entries are mutated in place and never
    replaced, so a fused warming hook can resolve its static branch's
    entry once, on the first retirement, and skip the hash lookup on
    every later one. *)
let warm_entry e ~taken =
  train_entry e ~taken;
  e.spec_count <- e.current

let resolve = entry

(** [reset t] restores the exact just-created state in place. *)
let reset t = Hashtbl.reset t.table

let copy t =
  {
    t with
    table =
      Hashtbl.fold
        (fun pc e acc ->
          Hashtbl.add acc pc
            {
              last_trip = e.last_trip;
              ema8 = e.ema8;
              conf = e.conf;
              current = e.current;
              spec_count = e.spec_count;
              trained = e.trained;
            };
          acc)
        t.table
        (Hashtbl.create (Hashtbl.length t.table));
  }
