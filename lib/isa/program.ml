(** A runnable program: a code image plus its initial data memory and
    metadata. This is the unit the emulator executes and the simulator
    models. *)

type t = {
  name : string;
  code : Code.t;
  entry : int; (* starting pc *)
  data : (int * int) list; (* initial (word address, value) pairs *)
  mem_words : int; (* size of the data memory in words *)
}

let default_mem_words = 1 lsl 21

let create ?(name = "anon") ?(entry = 0) ?(data = []) ?(mem_words = default_mem_words) code
    =
  if entry < 0 || entry >= Code.length code then invalid_arg "Program.create: bad entry";
  List.iter
    (fun (addr, _) ->
      if addr < 0 || addr >= mem_words then invalid_arg "Program.create: data out of range")
    data;
  { name; code; entry; data; mem_words }

let code t = t.code
let name t = t.name

(** [with_data t data] rebinds the initial data memory — the same binary
    run with a different input set. *)
let with_data t data =
  List.iter
    (fun (addr, _) ->
      if addr < 0 || addr >= t.mem_words then invalid_arg "Program.with_data: out of range")
    data;
  { t with data }

let pp ppf t =
  Fmt.pf ppf "program %s (entry=%d, %d insts)@.%a" t.name t.entry (Code.length t.code)
    Code.pp t.code
