(* Spans and counters recorded from the benchmark's own code, around
   each call into a layer of the repo.  Spans are kept in memory and
   written out when the run ends; with tracing off every entry point
   is a single branch. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  query : int;  (** the query the span belongs to; [-1] during set-up *)
  parent : int;  (** enclosing span's [id], [-1] at top level *)
  start : float;
  stop : float;
  minor_words : float;  (** allocation across the call *)
  major_words : float;
}

let on = ref false
let query = ref (-1)
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let reset () =
  query := -1;
  spans := [];
  next_id := 0;
  current := -1;
  Hashtbl.reset counters

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        let minor1 = Gc.minor_words () and major1 = (Gc.quick_stat ()).Gc.major_words in
        current := parent;
        spans :=
          {
            id;
            name;
            query = !query;
            parent;
            start;
            stop;
            minor_words = minor1 -. minor0;
            major_words = major1 -. major0;
          }
          :: !spans)
  end

let count name v =
  if !on then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* A span's self time is its duration minus the part its children
   cover; children never outlive their parent. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      (s, s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    !spans

(* one JSON object per line, appended so that several workloads can
   share a file *)
let write ~workload file =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str workload);
                ("name", Json.Str s.name);
                ("query", Json.Num (float_of_int s.query));
                ("parent", Json.Num (float_of_int s.parent));
                ("start", Json.Num s.start);
                ("end", Json.Num s.stop);
                ("minor_words", Json.Num s.minor_words);
                ("major_words", Json.Num s.major_words);
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* Cost of recording one span, measured on empty spans that are then
   discarded: the tracing overhead without comparing two noisy runs. *)
let span_cost () =
  let saved = !spans and id = !next_id and n = 10_000 in
  let t0 = now () in
  for _ = 1 to n do
    span "calibration" ignore
  done;
  let cost = (now () -. t0) /. float_of_int n in
  spans := saved;
  next_id := id;
  cost
