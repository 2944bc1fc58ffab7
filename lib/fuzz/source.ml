(** Reference evaluator over the Kernel AST — see the interface for the
    semantics. Written from the language's definition, not from
    {!Wish_compiler.Codegen}: the two must agree only because both are
    right. *)

module Ast = Wish_compiler.Ast

exception Out_of_fuel

type env = {
  mem : int array;
  vars : (string, int) Hashtbl.t;
  funcs : (string * Ast.block) list;
  mutable fuel : int;
}

let binop op a b =
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.And -> a land b
  | Ast.Or -> a lor b
  | Ast.Xor -> a lxor b
  | Ast.Shl -> a lsl (b land 63)
  | Ast.Shr -> a asr (b land 63)

let holds op (a : int) b =
  match op with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b

let rec eval env = function
  | Ast.Int n -> n
  | Ast.Var v -> Option.value ~default:0 (Hashtbl.find_opt env.vars v)
  | Ast.Binop (op, a, b) -> binop op (eval env a) (eval env b)
  | Ast.Cmp (op, a, b) -> if holds op (eval env a) (eval env b) then 1 else 0
  | Ast.Load e -> env.mem.(eval env e)

let tick env =
  if env.fuel <= 0 then raise Out_of_fuel;
  env.fuel <- env.fuel - 1

let rec exec env = function
  | Ast.Assign (v, e) -> Hashtbl.replace env.vars v (eval env e)
  | Ast.Store (a, e) ->
    let a = eval env a in
    env.mem.(a) <- eval env e
  | Ast.If (c, t, e) -> block env (if eval env c <> 0 then t else e)
  | Ast.While (c, body) ->
    while eval env c <> 0 do
      tick env;
      block env body
    done
  | Ast.Do_while (body, c) ->
    tick env;
    block env body;
    if eval env c <> 0 then exec env (Ast.Do_while (body, c))
  | Ast.For (v, lo, hi, body) ->
    Hashtbl.replace env.vars v (eval env lo);
    while eval env (Ast.Var v) < eval env hi do
      tick env;
      block env body;
      Hashtbl.replace env.vars v (eval env (Ast.Var v) + 1)
    done
  | Ast.Call f ->
    tick env;
    block env (List.assoc f env.funcs)

and block env b = List.iter (exec env) b

let run ~fuel ~mem_words ~data (program : Ast.program) =
  let mem = Array.make mem_words 0 in
  List.iter
    (fun (s : Wish_isa.Program.segment) -> Array.blit s.words 0 mem s.base (Array.length s.words))
    data;
  let env = { mem; vars = Hashtbl.create 16; funcs = program.Ast.funcs; fuel } in
  block env program.Ast.main;
  mem
