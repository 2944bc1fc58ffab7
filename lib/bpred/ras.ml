(** Return address stack: a fixed-size circular stack that silently
    overwrites on overflow, as real hardware does. The core checkpoints the
    top-of-stack pointer at each branch and restores it on squash (pointer
    repair only — overwritten entries stay corrupted, a standard and
    documented imperfection). *)

type t = { data : int array; mutable top : int (* number of pushes mod capacity *) }

let create ~entries = { data = Array.make entries 0; top = 0 }

let capacity t = Array.length t.data

let push t addr =
  t.data.(t.top mod capacity t) <- addr;
  t.top <- t.top + 1

(** [pop t] predicts a return target. An empty stack predicts 0 (which will
    simply mispredict). *)
let pop t =
  if t.top = 0 then 0
  else begin
    t.top <- t.top - 1;
    t.data.(t.top mod capacity t)
  end

let snapshot t = t.top
let restore t top = t.top <- Int.max 0 top
let copy t = { data = Array.copy t.data; top = t.top }
