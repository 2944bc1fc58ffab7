(* Reducers shared by every metric of the benchmark: median and quartiles
   (Python's statistics.quantiles(n=4), "exclusive" method, so the
   spreads printed here are the ones an external checker computes), the
   tail-percentile reporting rule, and the compare verdict. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Reduce.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [quartiles xs] = (q1, q2, q3). Python's exclusive method: the i-th cut
   point sits at rank i(n+1)/4, interpolated between neighbours, with the
   lower rank clamped to [1, n-1]. One sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Reduce.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let cut i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median (0 for a 0 median). *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* Candidate tail percentiles, in tenths of a percent, highest first. *)
let tail_candidates = [ 999; 990; 950; 900; 750 ]

(* [tail xs] — the highest candidate percentile with at least ten
   samples beyond it (nearest-rank), as (percentile, value); [None] when
   even the 75th has fewer than ten samples above it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let rank = ((n * p) + 999) / 1000 in
      if rank >= 1 && n - rank >= 10 then Some (float_of_int p /. 10.0, a.(rank - 1)) else None)
    tail_candidates

type better = Lower | Higher
type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [verdict ~better ~bound ~old ~fresh] for one (workload, metric):
   - improved: at least ten old×fresh pairs, the fresh run wins 90% of
     them (ties count for neither), and the medians differ by more than
     the old runs' interquartile distance;
   - unresolved: either side's spread exceeds [bound] (unless every
     fresh run beats every old run), or the fresh median is better by
     more than [bound] without the evidence a gain needs;
   - regressed: the fresh median is worse than the old by more than
     [bound] × |old median|;
   - unchanged: otherwise. *)
let verdict ~better ~bound ~old ~fresh =
  let gain a b = match better with Lower -> a -. b | Higher -> b -. a in
  let mo = median old and mf = median fresh in
  let pairs = List.length old * List.length fresh in
  let wins =
    List.fold_left
      (fun acc o -> List.fold_left (fun w f -> if gain o f > 0.0 then w + 1 else w) acc fresh)
      0 old
  in
  let q1, _, q3 = quartiles old in
  let margin = bound *. Float.abs mo in
  if pairs >= 10 && float_of_int wins >= 0.9 *. float_of_int pairs && gain mo mf > q3 -. q1
  then Improved
  else if spread old > bound || spread fresh > bound then
    if wins = pairs then Unchanged else Unresolved
  else if gain mo mf < -.margin then Regressed
  else if gain mo mf > margin then Unresolved
  else Unchanged
