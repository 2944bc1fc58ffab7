(** The nine benchmarks of the paper's Table 4 subset. *)

let builders =
  [
    ("gzip", W_gzip.bench);
    ("vpr", W_vpr.bench);
    ("mcf", W_mcf.bench);
    ("crafty", W_crafty.bench);
    ("parser", W_parser.bench);
    ("gap", W_gap.bench);
    ("vortex", W_vortex.bench);
    ("bzip2", W_bzip2.bench);
    ("twolf", W_twolf.bench);
  ]

let names = List.map fst builders

(* Bench construction regenerates all three seeded input datasets, which
   is the expensive part — and [Bench.t] is immutable, so one instance
   per (name, scale) can be shared by every lab in the process. The
   mutex covers labs created from concurrent domains. *)
let memo : (string * int, Bench.t) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let check ~scale name =
  if scale < 1 then invalid_arg (Printf.sprintf "scale %d: must be at least 1" scale);
  if not (List.mem_assoc name builders) then
    invalid_arg
      (Printf.sprintf "unknown workload %s (know: %s)" name (String.concat ", " names))

let find ~scale name =
  check ~scale name;
  Mutex.protect memo_lock (fun () ->
      match Hashtbl.find_opt memo (name, scale) with
      | Some b -> b
      | None ->
        let b = (List.assoc name builders) ~scale in
        Hashtbl.add memo (name, scale) b;
        b)

let all ~scale : Bench.t list = List.map (find ~scale) names
