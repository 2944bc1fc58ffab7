(** ISA-level dynamic profiling: per-branch execution/taken counts from
    an architectural run, for the compiler's profile-guided decisions. *)

open Wish_isa

type branch_stats = { mutable executed : int; mutable taken : int }

type t = {
  branches : (int, branch_stats) Hashtbl.t; (* pc -> stats, conditional only *)
  mutable dynamic_insts : int;
  mutable dynamic_cond_branches : int;
}

(** [of_program program] profiles a full architectural run through the
    compiled emulator. *)
let of_program ?(fuel = 200_000_000) program =
  let st = State.create program in
  let code = Program.code program in
  let t = { branches = Hashtbl.create 256; dynamic_insts = 0; dynamic_cond_branches = 0 } in
  let is_cond = Array.init (Code.length code) (fun pc -> Inst.is_conditional (Code.get code pc)) in
  (* Only branches that actually execute appear in the table. The array
     just caches the Hashtbl lookup per static pc. *)
  let cells = Array.make (max 1 (Code.length code)) None in
  let sink (o : Exec.out) =
    t.dynamic_insts <- t.dynamic_insts + 1;
    let pc = o.Exec.o_pc in
    if Array.unsafe_get is_cond pc then begin
      t.dynamic_cond_branches <- t.dynamic_cond_branches + 1;
      let c =
        match Array.unsafe_get cells pc with
        | Some c -> c
        | None ->
          let c = { executed = 0; taken = 0 } in
          Hashtbl.add t.branches pc c;
          Array.unsafe_set cells pc (Some c);
          c
      in
      c.executed <- c.executed + 1;
      (* The architectural direction of a guarded branch is its guard. *)
      if o.Exec.o_guard_true then c.taken <- c.taken + 1
    end
  in
  let compiled = Compiled.compile ~mode:Exec.Architectural code in
  Compiled.run_to_halt compiled st (Exec.make_out ()) ~sink ~fuel;
  (t, st)

let taken_rate t pc =
  match Hashtbl.find_opt t.branches pc with
  | None -> 0.0
  | Some c -> if c.executed = 0 then 0.0 else float_of_int c.taken /. float_of_int c.executed

let static_branch_count t = Hashtbl.length t.branches
