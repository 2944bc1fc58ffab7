(** Deterministic fault injection. See the interface.

    Synchronization discipline: every table below is guarded by [lock].
    The disarmed fast path reads only [armed_sites], an atomic counter
    of currently armed sites; while it is zero, {!cut} touches nothing
    else, so production runs pay one load per site. *)

exception Injected of { site : string; hit : int }

type plan = {
  mutable remaining : int; (* triggered cuts left to fail *)
  percent : int; (* 100 = every cut triggers *)
  rng : Rng.t; (* gate stream when percent < 100 *)
}

let lock = Mutex.create ()
let armed_sites = Atomic.make 0
let registry : (string, string) Hashtbl.t = Hashtbl.create 16
let plans : (string, plan) Hashtbl.t = Hashtbl.create 16
let hit_counts : (string, int ref) Hashtbl.t = Hashtbl.create 16
let injected_counts : (string, int ref) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register site ~doc =
  locked (fun () -> if not (Hashtbl.mem registry site) then Hashtbl.add registry site doc);
  site

let registered () =
  locked (fun () ->
      Hashtbl.fold (fun site doc acc -> (site, doc) :: acc) registry []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let bump table site =
  match Hashtbl.find_opt table site with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.add table site (ref 1);
    1

let count table site = match Hashtbl.find_opt table site with Some r -> !r | None -> 0

let arm ?(seed = 1) ?(percent = 100) site ~times =
  if times < 0 then invalid_arg "Faultpoint.arm: times < 0";
  if percent < 0 || percent > 100 then invalid_arg "Faultpoint.arm: percent out of range";
  locked (fun () ->
      if not (Hashtbl.mem plans site) then Atomic.incr armed_sites;
      Hashtbl.replace plans site { remaining = times; percent; rng = Rng.create seed };
      Hashtbl.remove hit_counts site;
      Hashtbl.remove injected_counts site)

let disarm site =
  locked (fun () ->
      if Hashtbl.mem plans site then begin
        Hashtbl.remove plans site;
        Atomic.decr armed_sites
      end)

let reset () =
  locked (fun () ->
      Hashtbl.reset plans;
      Hashtbl.reset hit_counts;
      Hashtbl.reset injected_counts;
      Atomic.set armed_sites 0)

let enabled () = Atomic.get armed_sites > 0

(* Decide, under the lock, whether an armed cut fires; returns the hit
   ordinal when it does. *)
let fire_decision site =
  if not (enabled ()) then None
  else
    locked (fun () ->
        let hit = bump hit_counts site in
        match Hashtbl.find_opt plans site with
        | None -> None
        | Some p ->
          if p.remaining > 0 && (p.percent >= 100 || Rng.chance p.rng ~percent:p.percent)
          then begin
            p.remaining <- p.remaining - 1;
            ignore (bump injected_counts site);
            Some hit
          end
          else None)

let fires site = match fire_decision site with Some _ -> true | None -> false

let cut site =
  match fire_decision site with Some hit -> raise (Injected { site; hit }) | None -> ()

let hits site = locked (fun () -> count hit_counts site)
let injected site = locked (fun () -> count injected_counts site)

let arm_from_env () =
  match Sys.getenv_opt "WISH_FAULTS" with
  | None | Some "" -> ()
  | Some spec ->
    let seed =
      match Sys.getenv_opt "WISH_FAULT_SEED" with
      | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
      | None -> 1
    in
    String.split_on_char ',' spec
    |> List.iter (fun item ->
           let item = String.trim item in
           if item <> "" then
             match String.split_on_char ':' item with
             | [ site; times ] -> (
               match int_of_string_opt times with
               | Some n -> arm ~seed site ~times:n
               | None -> invalid_arg ("WISH_FAULTS: bad count in " ^ item))
             | [ site; times; percent ] -> (
               match (int_of_string_opt times, int_of_string_opt percent) with
               | Some n, Some p -> arm ~seed ~percent:p site ~times:n
               | _ -> invalid_arg ("WISH_FAULTS: bad numbers in " ^ item))
             | _ -> invalid_arg ("WISH_FAULTS: expected site:times[:percent], got " ^ item))
