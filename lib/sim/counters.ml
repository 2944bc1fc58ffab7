(** The timing core's event counters: one [int array], one slot per
    counter. [def] hands out the next index and records the name it
    prints under, so each counter is declared exactly once. *)

type t = int array
type id = int

let defined = ref []

let def name =
  defined := name :: !defined;
  List.length !defined - 1

let fetched_uops = def "fetched_uops"
let nops_eliminated = def "nops_eliminated"
let icache_stalls = def "icache_stalls"
let divergences = def "divergences"
let btb_misses = def "btb_misses"
let nofetch_dropped = def "nofetch_dropped"
let phantom_entries = def "phantom_entries"
let renamed_uops = def "renamed_uops"
let issued_uops = def "issued_uops"
let load_latency_total = def "load_latency_total"
let load_count = def "load_count"
let retired_uops = def "retired_uops"
let retired_correct = def "retired_correct"
let retired_guard_false = def "retired_guard_false"
let retired_phantom = def "retired_phantom"
let cond_branches_retired = def "cond_branches_retired"
let mispredicts_retired = def "mispredicts_retired"
let mispredicts_resolved = def "mispredicts_resolved"
let flushes = def "flushes"
let flush_delay_total = def "flush_delay_total"
let wish_retired = def "wish_retired"
let wish_loop_retired = def "wish_loop_retired"
let wish_high_correct = def "wish_high_correct"
let wish_high_mispred = def "wish_high_mispred"
let wish_low_correct = def "wish_low_correct"
let wish_low_mispred = def "wish_low_mispred"
let loop_high_correct = def "loop_high_correct"
let loop_high_mispred = def "loop_high_mispred"
let loop_low_early = def "loop_low_early"
let loop_low_late = def "loop_low_late"
let loop_low_noexit = def "loop_low_noexit"
let loop_low_correct = def "loop_low_correct"

let names = Array.of_list (List.rev !defined)
let count = Array.length names
let all = List.init count Fun.id
let name i = names.(i)
let create () = Array.make count 0
let copy = Array.copy
let get (t : t) i = t.(i)
let incr (t : t) i = t.(i) <- t.(i) + 1
let add (t : t) i n = t.(i) <- t.(i) + n
let diff = Array.map2 ( - )
let sum ts = List.fold_left (Array.map2 ( + )) (create ()) ts

let scale t ~num ~den =
  Array.map
    (fun x ->
      if den = 0 then 0
      else int_of_float (Float.round (float_of_int x *. float_of_int num /. float_of_int den)))
    t

let pp ppf t = Array.iteri (fun i v -> Fmt.pf ppf "%-40s %d@." names.(i) v) t
