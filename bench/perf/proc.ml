(* Child processes and the few filesystem helpers the harness needs. The
   harness is a closed loop with one client: it starts one child, waits
   for it, and only then starts the next. *)

external wait4 : int -> int * float * float * int = "perf_wait4"

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type result = {
  code : int;
  wall_s : float;
  cpu_s : float;  (** user + sys of the child itself *)
  rss_mb : float;  (** the child's ru_maxrss *)
}

(* Children inherit the harness's environment minus every WISH_* setting
   (an armed faultpoint or a redirected cache would change the workload),
   plus [env]. *)
let child_env env =
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"WISH_" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (env @ inherited)

(* [run ?env ~stdout ~stderr prog args] — run [prog] to completion with
   its standard output and error sent to the named files. *)
let run ?(env = []) ~stdout ~stderr prog args =
  let open_out path = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let out = open_out stdout in
  let err = open_out stderr in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) (child_env env) Unix.stdin out
          err)
  in
  let code, user, sys, rss_kb = wait4 pid in
  { code; wall_s = now () -. t0; cpu_s = user +. sys; rss_mb = float_of_int rss_kb *. 1024.0 /. 1e6 }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* Bytes in the regular files under [path]. *)
let rec disk_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc e -> acc + disk_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

(* The last [n] lines of a file, for failure reports. *)
let tail_lines ?(n = 8) path =
  match read_file path with
  | exception Sys_error _ -> ""
  | s ->
    let lines = String.split_on_char '\n' (String.trim s) in
    let k = List.length lines in
    String.concat "\n" (List.filteri (fun i _ -> i >= k - n) lines)
