(** Flat word-addressed data memory. One word = one OCaml int; the memory
    hierarchy maps word address [a] to byte address [8*a]. *)

type t = { words : int array }

exception Fault of int

let create ~words = { words = Array.make words 0 }

let of_program (p : Wish_isa.Program.t) =
  let t = create ~words:p.mem_words in
  List.iter
    (fun (s : Wish_isa.Program.segment) ->
      Array.blit s.words 0 t.words s.base (Array.length s.words))
    p.data;
  t

let size t = Array.length t.words

(* The explicit fault check subsumes the bounds check, so the access
   itself is unchecked — memory is the emulator's hottest dynamic-index
   path and would otherwise pay the range test twice. The raise is kept
   out of line so [read]/[write] stay small enough for the non-flambda
   compiler to inline them into the emulator's load/store closures. *)
let[@inline never] fault addr = raise (Fault addr)

let[@inline] read t addr =
  if addr < 0 || addr >= Array.length t.words then fault addr
  else Array.unsafe_get t.words addr

let[@inline] write t addr v =
  if addr < 0 || addr >= Array.length t.words then fault addr
  else Array.unsafe_set t.words addr v

(** [checksum t] folds the whole memory into one value; used as the golden
    output when comparing binaries for architectural equivalence. *)
let checksum t =
  Array.fold_left (fun acc w -> (acc * 31) + w + 17 |> fun x -> x land max_int) 0 t.words
