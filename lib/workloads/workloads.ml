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
   is the expensive part — and nothing writes a [Bench.t] (its input
   arrays included), so one instance per (name, scale) can be shared by
   every lab in the process. The mutex covers the table for labs on
   concurrent domains; builds run outside it, so different benches build
   in parallel, and of two domains racing on one bench, both build and
   the first to insert wins. *)
let memo : (string * int, Bench.t) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let check ~scale name =
  if scale < 1 then invalid_arg (Printf.sprintf "scale %d: must be at least 1" scale);
  if not (List.mem_assoc name builders) then
    invalid_arg
      (Printf.sprintf "unknown workload %s (know: %s)" name (String.concat ", " names))

(* A bench's inputs do not depend on its scale (only its kernel's trip
   counts do), so a second scale of one bench keeps the inputs of the
   first built, once they are seen to be equal: a scale sweep holds one
   copy of each input image, not one per scale. *)
let share_inputs (b : Bench.t) =
  let built = Hashtbl.fold (fun (n, _) o acc -> if n = b.name then Some o else acc) memo None in
  match built with
  | Some (o : Bench.t) when o.inputs = b.inputs -> { b with inputs = o.inputs }
  | _ -> b

let find ~scale name =
  check ~scale name;
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo (name, scale)) with
  | Some b -> b
  | None ->
    let b = (List.assoc name builders) ~scale in
    Mutex.protect memo_lock (fun () ->
        match Hashtbl.find_opt memo (name, scale) with
        | Some first -> first
        | None ->
          let b = share_inputs b in
          Hashtbl.add memo (name, scale) b;
          b)

let all ~scale : Bench.t list = List.map (find ~scale) names
