type 'b outcome = Done of 'b | Crashed of string | Timed_out of float

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* One in-flight child: its pipe's read end stays registered until we
   see EOF (normal completion) or kill it (timeout). *)
type child = {
  idx : int;
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  started : float;
}

let rec wait_status pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> wait_status pid

let no_result = "worker died before reporting a result"

let decode (c : child) status =
  let from_pipe () =
    match
      (Marshal.from_string (Buffer.contents c.buf) 0 : ('b, string) result)
    with
    | Ok v -> Done v
    | Error msg -> Crashed msg
    | exception _ -> Crashed no_result
  in
  match status with
  | Unix.WEXITED 0 -> from_pipe ()
  | Unix.WEXITED n -> (
      (* a worker that wrote a full result and then exited nonzero
         still counts; an empty pipe is a crash *)
      match from_pipe () with
      | Done _ as d -> d
      | _ -> Crashed (Printf.sprintf "worker exited with code %d" n))
  | Unix.WSIGNALED s -> Crashed (Printf.sprintf "worker killed by signal %d" s)
  | Unix.WSTOPPED s -> Crashed (Printf.sprintf "worker stopped by signal %d" s)

let map ?jobs ?timeout_s ?(on_result = fun _ _ -> ()) f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let results = Array.make n (Crashed no_result) in
  let settle idx outcome =
    results.(idx) <- outcome;
    on_result idx outcome
  in
  let next = ref 0 in
  let running = ref [] in
  let spawn i =
    let r, w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        (* child: compute, marshal the outcome, hard-exit.  _exit
           skips at_exit and buffered-channel flushing, which belong
           to the parent. *)
        Unix.close r;
        List.iter (fun c -> try Unix.close c.fd with _ -> ()) !running;
        let code =
          try
            let v = try Ok (f xs.(i)) with e -> Error (Printexc.to_string e) in
            let oc = Unix.out_channel_of_descr w in
            Marshal.to_channel oc v [];
            flush oc;
            0
          with _ -> 125
        in
        Unix._exit code
    | pid ->
        Unix.close w;
        running :=
          {
            idx = i;
            pid;
            fd = r;
            buf = Buffer.create 256;
            started = Unix.gettimeofday ();
          }
          :: !running
  in
  let chunk = Bytes.create 65536 in
  while !next < n || !running <> [] do
    while !next < n && List.length !running < jobs do
      spawn !next;
      incr next
    done;
    let fds = List.map (fun c -> c.fd) !running in
    let readable, _, _ =
      try Unix.select fds [] [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let now = Unix.gettimeofday () in
    let keep = ref [] in
    List.iter
      (fun c ->
        let eof = ref false in
        if List.mem c.fd readable then begin
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 -> eof := true
          | k -> Buffer.add_subbytes c.buf chunk 0 k
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end;
        if !eof then begin
          Unix.close c.fd;
          settle c.idx (decode c (wait_status c.pid))
        end
        else
          match timeout_s with
          | Some limit when now -. c.started > limit ->
              (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (wait_status c.pid);
              Unix.close c.fd;
              settle c.idx (Timed_out (now -. c.started))
          | _ -> keep := c :: !keep)
      !running;
    running := !keep
  done;
  results
