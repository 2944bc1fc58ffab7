(** Deterministic pseudo-random number generator (xorshift64-star).

    All randomness in the repository flows through this module so that
    workload generation, trace generation and simulation are bit-for-bit
    reproducible across runs and machines. *)

(* The xorshift64* state lives in 8 bytes, read and written unboxed: a
   mutable [int64] field would box a fresh [Int64] on every draw. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int (if seed = 0 then 0x9E3779B9 else seed));
  t

let[@inline] next_int64 t =
  let open Int64 in
  let x = Bytes.get_int64_le t 0 in
  let x = logxor x (shift_left x 13) in
  let x = logxor x (shift_right_logical x 7) in
  let x = logxor x (shift_left x 17) in
  Bytes.set_int64_le t 0 x;
  mul x 0x2545F4914F6CDD1DL

(** [bits t] returns 30 uniformly distributed non-negative bits. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

(** [int t n] returns a uniform integer in [0, n). Requires [n > 0]. *)
let int t n =
  assert (n > 0);
  bits t mod n

(** [bool t] returns a uniform boolean. *)
let bool t = bits t land 1 = 1

(** [chance t ~percent] is true with probability [percent]/100. *)
let chance t ~percent = int t 100 < percent

(** [range t lo hi] returns a uniform integer in [lo, hi]. *)
let range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

(** [geometric t ~stop_percent ~max] counts trials until a stop event with
    probability [stop_percent]/100 occurs, capped at [max]. Used to produce
    the short, variable loop trip counts that make wish loops interesting. *)
let geometric t ~stop_percent ~max:cap =
  let rec loop n =
    if n >= cap then cap
    else if chance t ~percent:stop_percent then n
    else loop (n + 1)
  in
  loop 1

(** [shuffle t a] shuffles [a] in place (Fisher-Yates). *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(** [hash_int x] is a deterministic avalanche hash, used to synthesize
    wrong-path memory addresses from PCs. *)
let hash_int x =
  let x = x * 0x45d9f3b land max_int in
  let x = (x lxor (x lsr 16)) * 0x45d9f3b land max_int in
  x lxor (x lsr 16)
