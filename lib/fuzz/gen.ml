(** Seeded random Kernel-program generator — see the interface for the
    shapes it aims at. All randomness flows through one {!Wish_util.Rng}
    stream per case; the module holds no global state. *)

module Ast = Wish_compiler.Ast
module Rng = Wish_util.Rng

type case = {
  c_seed : int;
  c_name : string;
  c_ast : Ast.program;
  c_profile_data : (int * int) list;
  c_eval_data : (int * int) list;
  c_mem_words : int;
  c_outs : int;
}

(* Memory geometry. The codegen reserves the top 1024 words of data
   memory for variable spills, so generated accesses stay strictly below
   [out_base] and the epilogue's out region sits just above the data
   region, leaving [out_base + max_vars .. mem_words - 1024) untouched. *)
let mem_words = 4096
let data_region = 2048
let out_base = data_region
let max_vars = 8
let max_loop_nest = 2

let case_seed ~root i = Rng.hash_int (root lxor Rng.hash_int ((i * 2) + 1))

type g = {
  rng : Rng.t;
  mutable nvars : int;  (* variables v0..v<nvars-1> exist *)
  mutable budget : int;  (* statements left to generate *)
}

let var_name i = Printf.sprintf "v%d" i

let pick_var g = if g.nvars = 0 then None else Some (var_name (Rng.int g.rng g.nvars))

(* A variable to assign: occasionally a fresh one, otherwise an existing
   one outside [forbid] (live loop counters). Returns [None] when every
   variable is forbidden and the file is full. *)
let assign_target g ~forbid =
  let fresh () =
    let v = var_name g.nvars in
    g.nvars <- g.nvars + 1;
    Some v
  in
  if g.nvars = 0 || (g.nvars < max_vars && Rng.chance g.rng ~percent:20) then fresh ()
  else
    let candidates =
      List.filter (fun i -> not (List.mem (var_name i) forbid)) (List.init g.nvars Fun.id)
    in
    match candidates with
    | [] -> if g.nvars < max_vars then fresh () else None
    | _ -> Some (var_name (List.nth candidates (Rng.int g.rng (List.length candidates))))

(* Mixed-magnitude literals, biased small. *)
let gen_int g =
  match Rng.int g.rng 6 with
  | 0 -> Rng.range g.rng (-4) 8
  | 1 | 2 -> Rng.range g.rng (-64) 64
  | 3 | 4 -> Rng.range g.rng (-4096) 4096
  | _ -> Rng.range g.rng (-1048576) 1048576

let binops = [| Ast.Add; Ast.Sub; Ast.Mul; Ast.And; Ast.Or; Ast.Xor |]
let cmpops = [| Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |]

let rec gen_expr g depth =
  if depth <= 0 || Rng.chance g.rng ~percent:35 then gen_leaf g
  else
    match Rng.int g.rng 10 with
    | 0 | 1 | 2 | 3 ->
      Ast.Binop (binops.(Rng.int g.rng 6), gen_expr g (depth - 1), gen_expr g (depth - 1))
    | 4 ->
      (* Shift counts are always constant and in [0, 31]: shifting by a
         data-dependent amount is masked differently by no backend, but
         keeping counts small keeps values well inside the 63-bit word. *)
      let op = if Rng.bool g.rng then Ast.Shl else Ast.Shr in
      Ast.Binop (op, gen_expr g (depth - 1), Ast.Int (Rng.int g.rng 32))
    | 5 | 6 -> Ast.Cmp (cmpops.(Rng.int g.rng 6), gen_expr g (depth - 1), gen_expr g (depth - 1))
    | _ -> Ast.Load (gen_addr g depth)

and gen_leaf g =
  match pick_var g with
  | Some v when Rng.chance g.rng ~percent:60 -> Ast.Var v
  | _ -> Ast.Int (gen_int g)

(* Always in bounds: (e land mask) + base, mask + base < data_region. *)
and gen_addr g depth =
  let mask, base =
    match Rng.int g.rng 4 with
    | 0 -> (15, 0)
    | 1 -> (63, 512)
    | 2 -> (255, 1024)
    | _ -> (1023, 1024)
  in
  Ast.Binop (Ast.Add, Ast.Binop (Ast.And, gen_expr g (depth - 1), Ast.Int mask), Ast.Int base)

(* Conditions lean on loaded data half the time, so the evaluation input
   can disagree with the training profile. *)
let gen_cond g =
  let lhs = if Rng.chance g.rng ~percent:50 then Ast.Load (gen_addr g 1) else gen_expr g 2 in
  Ast.Cmp (cmpops.(Rng.int g.rng 6), lhs, gen_expr g 1)

(* Straight-line statement for hammock arms: assign or store only. *)
let gen_flat_stmt g ~forbid =
  if Rng.chance g.rng ~percent:70 then
    match assign_target g ~forbid with
    | Some v -> Ast.Assign (v, gen_expr g 2)
    | None -> Ast.Store (gen_addr g 1, gen_expr g 2)
  else Ast.Store (gen_addr g 1, gen_expr g 2)

let gen_flat_block g ~forbid n = List.init n (fun _ -> gen_flat_stmt g ~forbid)

let rec gen_stmt g ~depth ~loops ~forbid ~funcs : Ast.stmt list =
  g.budget <- g.budget - 1;
  match Rng.int g.rng 13 with
  | 0 | 1 | 2 -> (
    match assign_target g ~forbid with
    | Some v -> [ Ast.Assign (v, gen_expr g 3) ]
    | None -> [ Ast.Store (gen_addr g 2, gen_expr g 2) ])
  | 3 -> [ Ast.Store (gen_addr g 2, gen_expr g 3) ]
  | 4 | 5 | 6 ->
    (* Wish-eligible hammock: straight-line arms whose sizes straddle the
       wish-jump threshold (N=5 WISC instructions) and the cost model's
       break-even point; the else arm is empty a third of the time
       (triangle). *)
    let then_arm = gen_flat_block g ~forbid (1 + Rng.int g.rng 6) in
    let else_arm =
      if Rng.chance g.rng ~percent:33 then [] else gen_flat_block g ~forbid (1 + Rng.int g.rng 6)
    in
    [ Ast.If (gen_cond g, then_arm, else_arm) ]
  | 7 when depth > 0 && g.budget > 0 ->
    (* General (possibly non-convertible) diamond. *)
    let arm () = gen_block g ~depth:(depth - 1) ~loops ~forbid ~funcs in
    [ Ast.If (gen_cond g, arm (), arm ()) ]
  | 8 | 9 when loops < max_loop_nest && g.budget > 0 -> gen_loop g ~depth ~loops ~forbid ~funcs
  | 10 when funcs <> [] -> [ Ast.Call (List.nth funcs (Rng.int g.rng (List.length funcs))) ]
  | 11 when g.nvars > 0 ->
    (* A fetch group full of conditional branches: [If (v = v, [], [])]
       lowers to a compare and a never-taken branch where the branch is
       kept (the normal binary, and BASE-DEF once profiled always-true),
       so four to six in a row put more than [max_cond_branches] (3) in
       one group. *)
    let v = Ast.Var (var_name (Rng.int g.rng g.nvars)) in
    List.init (4 + Rng.int g.rng 3) (fun _ -> Ast.If (Ast.Cmp (Ast.Eq, v, v), [], []))
  | _ -> (
    match assign_target g ~forbid with
    | Some v -> [ Ast.Assign (v, gen_expr g 2) ]
    | None -> [ Ast.Store (gen_addr g 1, gen_expr g 1) ])

(* Counted loops only: constant trip counts, counter never assigned by
   the body — termination by construction. Small straight-line bodies
   (≤ the paper's L=30 threshold) keep wish-loop conversion reachable. *)
and gen_loop g ~depth ~loops ~forbid ~funcs =
  match assign_target g ~forbid with
  | None -> [ Ast.Store (gen_addr g 1, gen_expr g 1) ]
  | Some c ->
    let trip = Rng.int g.rng 33 in
    let forbid = c :: forbid in
    let body =
      if Rng.chance g.rng ~percent:50 then gen_flat_block g ~forbid (1 + Rng.int g.rng 4)
      else gen_block g ~depth:(depth - 1) ~loops:(loops + 1) ~forbid ~funcs
    in
    let bump = Ast.Assign (c, Ast.Binop (Ast.Add, Ast.Var c, Ast.Int 1)) in
    (match Rng.int g.rng 3 with
    | 0 -> [ Ast.For (c, Ast.Int 0, Ast.Int trip, body) ]
    | 1 ->
      [
        Ast.Assign (c, Ast.Int 0);
        Ast.While (Ast.Cmp (Ast.Lt, Ast.Var c, Ast.Int trip), body @ [ bump ]);
      ]
    | _ ->
      [
        Ast.Assign (c, Ast.Int 0);
        Ast.Do_while (body @ [ bump ], Ast.Cmp (Ast.Lt, Ast.Var c, Ast.Int (max 1 trip)));
      ])

and gen_block g ~depth ~loops ~forbid ~funcs =
  let len = 1 + Rng.int g.rng 5 in
  let rec go n acc =
    if n = 0 || g.budget <= 0 then List.concat (List.rev acc)
    else go (n - 1) (gen_stmt g ~depth ~loops ~forbid ~funcs :: acc)
  in
  go len []

let gen_data g =
  let n = Rng.int g.rng 17 in
  List.init n (fun _ -> (Rng.int g.rng data_region, gen_int g))

let generate seed =
  let g = { rng = Rng.create seed; nvars = 0; budget = 36 } in
  (* Functions first (no forward calls, so no recursion). *)
  let nfuncs = Rng.int g.rng 3 in
  let funcs =
    List.init nfuncs (fun i ->
        let callable = List.init i (fun j -> Printf.sprintf "f%d" j) in
        (Printf.sprintf "f%d" i, gen_block g ~depth:1 ~loops:0 ~forbid:[] ~funcs:callable))
  in
  let callable = List.map fst funcs in
  (* Seed a few variables from constants and loads, then the body. *)
  let prologue =
    List.init
      (2 + Rng.int g.rng 3)
      (fun _ ->
        match assign_target g ~forbid:[] with
        | Some v ->
          let e =
            if Rng.chance g.rng ~percent:40 then Ast.Load (gen_addr g 1) else Ast.Int (gen_int g)
          in
          Ast.Assign (v, e)
        | None -> Ast.Store (gen_addr g 1, Ast.Int (gen_int g)))
  in
  let body = gen_block g ~depth:3 ~loops:0 ~forbid:[] ~funcs:callable in
  (* Live-out state becomes memory, the one observable the cross-binary
     oracle compares. *)
  let outs = g.nvars in
  let epilogue =
    List.init outs (fun i -> Ast.Store (Ast.Int (out_base + i), Ast.Var (var_name i)))
  in
  let ast = { Ast.funcs; main = prologue @ body @ epilogue } in
  let profile_data = gen_data g in
  let eval_data = gen_data g in
  {
    c_seed = seed;
    c_name = Printf.sprintf "fuzz-%012x" (seed land 0xffffffffffff);
    c_ast = ast;
    c_profile_data = profile_data;
    c_eval_data = eval_data;
    c_mem_words = mem_words;
    c_outs = outs;
  }

(* Canonical printer ---------------------------------------------------- *)

let binop_sym = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.And -> "&"
  | Ast.Or -> "|"
  | Ast.Xor -> "^"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"

let cmpop_sym = function
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let rec pp_expr buf = function
  | Ast.Int n -> Buffer.add_string buf (string_of_int n)
  | Ast.Var v -> Buffer.add_string buf v
  | Ast.Binop (op, a, b) ->
    Buffer.add_char buf '(';
    pp_expr buf a;
    Buffer.add_string buf (" " ^ binop_sym op ^ " ");
    pp_expr buf b;
    Buffer.add_char buf ')'
  | Ast.Cmp (op, a, b) ->
    Buffer.add_char buf '(';
    pp_expr buf a;
    Buffer.add_string buf (" " ^ cmpop_sym op ^ " ");
    pp_expr buf b;
    Buffer.add_char buf ')'
  | Ast.Load e ->
    Buffer.add_string buf "mem[";
    pp_expr buf e;
    Buffer.add_char buf ']'

let rec pp_stmt buf ind s =
  let pad () = Buffer.add_string buf (String.make ind ' ') in
  match s with
  | Ast.Assign (v, e) ->
    pad ();
    Buffer.add_string buf (v ^ " = ");
    pp_expr buf e;
    Buffer.add_char buf '\n'
  | Ast.Store (a, e) ->
    pad ();
    Buffer.add_string buf "mem[";
    pp_expr buf a;
    Buffer.add_string buf "] = ";
    pp_expr buf e;
    Buffer.add_char buf '\n'
  | Ast.If (c, t, e) ->
    pad ();
    Buffer.add_string buf "if ";
    pp_expr buf c;
    Buffer.add_string buf " {\n";
    pp_block buf (ind + 2) t;
    if e <> [] then begin
      pad ();
      Buffer.add_string buf "} else {\n";
      pp_block buf (ind + 2) e
    end;
    pad ();
    Buffer.add_string buf "}\n"
  | Ast.While (c, b) ->
    pad ();
    Buffer.add_string buf "while ";
    pp_expr buf c;
    Buffer.add_string buf " {\n";
    pp_block buf (ind + 2) b;
    pad ();
    Buffer.add_string buf "}\n"
  | Ast.Do_while (b, c) ->
    pad ();
    Buffer.add_string buf "do {\n";
    pp_block buf (ind + 2) b;
    pad ();
    Buffer.add_string buf "} while ";
    pp_expr buf c;
    Buffer.add_char buf '\n'
  | Ast.For (v, e1, e2, b) ->
    pad ();
    Buffer.add_string buf ("for " ^ v ^ " = ");
    pp_expr buf e1;
    Buffer.add_string buf " to ";
    pp_expr buf e2;
    Buffer.add_string buf " {\n";
    pp_block buf (ind + 2) b;
    pad ();
    Buffer.add_string buf "}\n"
  | Ast.Call f ->
    pad ();
    Buffer.add_string buf ("call " ^ f ^ "\n")

and pp_block buf ind b = List.iter (pp_stmt buf ind) b

let to_string c =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "case %s seed=%d mem=%d outs=%d\n" c.c_name c.c_seed c.c_mem_words c.c_outs);
  let pp_data label d =
    Buffer.add_string buf (label ^ ":");
    List.iter (fun (a, v) -> Buffer.add_string buf (Printf.sprintf " %d=%d" a v)) d;
    Buffer.add_char buf '\n'
  in
  pp_data "profile" c.c_profile_data;
  pp_data "eval" c.c_eval_data;
  List.iter
    (fun (name, body) ->
      Buffer.add_string buf ("func " ^ name ^ " {\n");
      pp_block buf 2 body;
      Buffer.add_string buf "}\n")
    c.c_ast.Ast.funcs;
  Buffer.add_string buf "main {\n";
  pp_block buf 2 c.c_ast.Ast.main;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
