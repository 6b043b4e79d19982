type t = string  (* the cache directory *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir =
  mkdir_p dir;
  dir

(* the running executable: an entry another build wrote is a miss, so
   a changed Job.result shape or answer never reads back *)
let build = lazy (Digest.file Sys.executable_name)

let job_key (spec : Job.spec) =
  let b = spec.Job.budget in
  let opt f = function None -> "-" | Some v -> f v in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Lazy.force build;
            Marshal.to_string spec.Job.sys [];
            Job.technique_name spec.Job.technique;
            spec.Job.scenario;
            spec.Job.requirement;
            opt string_of_int b.Job.mc_states;
            opt string_of_float b.Job.mc_seconds;
            string_of_bool b.Job.mc_certify;
            string_of_int b.Job.sim_runs;
            string_of_int b.Job.sim_horizon_us;
          ]))

let path dir key = Filename.concat dir (key ^ ".job")

let find t key =
  match open_in_bin (path t key) with
  | exception Sys_error _ -> None
  | ic ->
      let v =
        match (Marshal.from_channel ic : Job.result) with
        | r -> Some r
        | exception _ -> None
      in
      close_in_noerr ic;
      v

let store t key r =
  let final = path t key in
  let tmp =
    Printf.sprintf "%s.%d.tmp" final (Unix.getpid ())
  in
  let oc = open_out_bin tmp in
  Marshal.to_channel oc (r : Job.result) [];
  close_out oc;
  Sys.rename tmp final
