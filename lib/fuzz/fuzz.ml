(** Fuzzing loop — see the interface for the determinism contract. *)

type failure = {
  f_index : int;
  f_seed : int;
  f_oracle : Oracle.name;
  f_reason : string;
  f_shrunk : Gen.case;
  f_trace : string list;
  f_steps : int;
  f_tried : int;
  f_size_before : int;
  f_size_after : int;
  f_repro : string option;
}

type report = {
  r_root : int;
  r_count : int;
  r_failures : failure list;
  r_skips : (string * int) list;
}

let report_ok r = r.r_failures = []

let summary_line r =
  let skips =
    match r.r_skips with
    | [] -> ""
    | l ->
      " (skips: "
      ^ String.concat ", " (List.map (fun (o, n) -> Printf.sprintf "%s %d" o n) l)
      ^ ")"
  in
  Printf.sprintf "%d cases, %d failure%s%s" r.r_count
    (List.length r.r_failures)
    (if List.length r.r_failures = 1 then "" else "s")
    skips

(* Check one case; on failure, shrink against the single oracle that
   fired (same oracle, any reason — pinning the reason would block the
   shrinker from simplifying one bug into a cleaner sibling). *)
let check_case ~oracles ~cache_dir ~shrink_tries idx seed =
  let case = Gen.generate seed in
  let verdicts = Oracle.check ?cache_dir ~names:oracles case in
  let skips =
    List.filter_map
      (fun (n, v) -> match v with Oracle.Skip _ -> Some (Oracle.name_id n) | _ -> None)
      verdicts
  in
  let failure =
    List.find_map
      (fun (n, v) -> match v with Oracle.Fail r -> Some (n, r) | _ -> None)
      verdicts
    |> Option.map (fun (oracle, reason0) ->
           let fails c = Oracle.first_failure ?cache_dir ~names:[ oracle ] c <> None in
           let s = Shrink.minimize ~fails ?max_tries:shrink_tries case in
           let reason =
             match Oracle.first_failure ?cache_dir ~names:[ oracle ] s.Shrink.shrunk with
             | Some (_, r) -> r
             | None -> reason0
           in
           {
             f_index = idx;
             f_seed = seed;
             f_oracle = oracle;
             f_reason = reason;
             f_shrunk = s.Shrink.shrunk;
             f_trace = s.Shrink.trace;
             f_steps = s.Shrink.steps;
             f_tried = s.Shrink.tried;
             f_size_before = Shrink.size case;
             f_size_after = Shrink.size s.Shrink.shrunk;
             f_repro = None;
           })
  in
  (skips, failure)

let add_skips tbl skips =
  List.iter
    (fun o -> Hashtbl.replace tbl o (1 + Option.value ~default:0 (Hashtbl.find_opt tbl o)))
    skips

let skips_assoc tbl =
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) tbl [] |> List.sort compare

let save_repro ~corpus_dir f =
  match corpus_dir with
  | None -> f
  | Some dir ->
    let path =
      Corpus.save ~dir ~oracle:f.f_oracle ~reason:f.f_reason ~steps:f.f_steps f.f_shrunk
    in
    { f with f_repro = Some path }

let run ?(oracles = Oracle.all_names) ?corpus_dir ?cache_dir ?shrink_tries ?(max_failures = 10)
    ?(progress = fun _ -> ()) ~root ~count () =
  let skips = Hashtbl.create 8 in
  let failures = ref [] in
  let nfail = ref 0 in
  let done_ = ref 0 in
  while !done_ < count && !nfail < max_failures do
    let idx = !done_ in
    let seed = Gen.case_seed ~root idx in
    let sk, fo = check_case ~oracles ~cache_dir ~shrink_tries idx seed in
    add_skips skips sk;
    Option.iter
      (fun f ->
        incr nfail;
        failures := save_repro ~corpus_dir f :: !failures)
      fo;
    incr done_;
    progress !done_
  done;
  { r_root = root; r_count = !done_; r_failures = List.rev !failures; r_skips = skips_assoc skips }
