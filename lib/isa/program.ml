(** A runnable program: a code image plus its initial data memory and
    metadata. This is the unit the emulator executes and the simulator
    models. *)

type segment = { base : int; words : int array }

type t = {
  name : string;
  code : Code.t;
  entry : int; (* starting pc *)
  data : segment list; (* initial data memory, applied in list order; shared, never written *)
  mem_words : int; (* size of the data memory in words *)
}

let default_mem_words = 1 lsl 21

(* One range check per segment: its first and last word both in memory. *)
let check_data ~msg ~mem_words data =
  List.iter
    (fun s ->
      if s.base < 0 || s.base > mem_words - Array.length s.words then invalid_arg msg)
    data

let create ?(name = "anon") ?(entry = 0) ?(data = []) ?(mem_words = default_mem_words) code
    =
  if entry < 0 || entry >= Code.length code then invalid_arg "Program.create: bad entry";
  check_data ~msg:"Program.create: data out of range" ~mem_words data;
  { name; code; entry; data; mem_words }

let code t = t.code
let name t = t.name

(** [with_data t data] rebinds the initial data memory — the same binary
    run with a different input set. *)
let with_data t data =
  check_data ~msg:"Program.with_data: out of range" ~mem_words:t.mem_words data;
  { t with data }

(** [segments_of_pairs pairs] — one segment per run of consecutive
    addresses, in the pairs' order. *)
let segments_of_pairs pairs =
  let close base rev_words acc =
    { base; words = Array.of_list (List.rev rev_words) } :: acc
  in
  let rec go base next rev_words acc = function
    | [] -> List.rev (close base rev_words acc)
    | (a, v) :: rest when a = next -> go base (next + 1) (v :: rev_words) acc rest
    | (a, v) :: rest -> go a (a + 1) [ v ] (close base rev_words acc) rest
  in
  match pairs with [] -> [] | (a, v) :: rest -> go a (a + 1) [ v ] [] rest

let pp ppf t =
  Fmt.pf ppf "program %s (entry=%d, %d insts)@.%a" t.name t.entry (Code.length t.code)
    Code.pp t.code
