open Ita_ta

type severity = Hint | Info | Warning | Error

type site =
  | Network_site
  | Clock_site of Guard.clock
  | Var_site of Expr.var
  | Channel_site of Channel.id
  | Automaton_site of int
  | Location_site of { comp : int; loc : int }
  | Edge_site of { comp : int; edge : int }

type pass =
  | Unused_clock
  | Never_reset_clock
  | Dead_var
  | Range_overflow
  | Unreachable_location
  | Invariant_misuse
  | Urgent_clock_guard
  | Channel_peer
  | Committed_cycle
  | Zeno_cycle
  | Dead_edge
  | Trivial_guard
  | Sync_write_race
  | Outside_cone
  | Merged_query_clock

type t = {
  pass : pass;
  severity : severity;
  site : site;
  message : string;
  fix : string option;
}

let pass_name = function
  | Unused_clock -> "unused-clock"
  | Never_reset_clock -> "never-reset-clock"
  | Dead_var -> "dead-var"
  | Range_overflow -> "range-overflow"
  | Unreachable_location -> "unreachable-location"
  | Invariant_misuse -> "invariant-misuse"
  | Urgent_clock_guard -> "urgent-clock-guard"
  | Channel_peer -> "channel-peer"
  | Committed_cycle -> "committed-cycle"
  | Zeno_cycle -> "zeno-cycle"
  | Dead_edge -> "dead-edge"
  | Trivial_guard -> "always-true-guard"
  | Sync_write_race -> "sync-write-race"
  | Outside_cone -> "outside-query-cone"
  | Merged_query_clock -> "merged-query-clock"

(* stable numeric pass id, part of the deterministic output order *)
let pass_id = function
  | Unused_clock -> 0
  | Never_reset_clock -> 1
  | Dead_var -> 2
  | Range_overflow -> 3
  | Unreachable_location -> 4
  | Invariant_misuse -> 5
  | Urgent_clock_guard -> 6
  | Channel_peer -> 7
  | Committed_cycle -> 8
  | Zeno_cycle -> 9
  | Dead_edge -> 10
  | Trivial_guard -> 11
  | Sync_write_race -> 12
  | Outside_cone -> 13
  | Merged_query_clock -> 14

let severity_name = function
  | Hint -> "hint"
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Hint -> 0 | Info -> 1 | Warning -> 2 | Error -> 3
let compare_severity a b = compare (severity_rank a) (severity_rank b)

let worst = function
  | [] -> None
  | ds ->
      Some
        (List.fold_left
           (fun acc d ->
             if compare_severity d.severity acc > 0 then d.severity else acc)
           Hint ds)

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let by_pass p ds = List.filter (fun d -> d.pass = p) ds

(* Component-major order so a report reads top to bottom through the
   model; the leading tag groups network-level findings first. *)
let site_key = function
  | Network_site -> (0, 0, 0, 0)
  | Clock_site x -> (1, x, 0, 0)
  | Var_site v -> (2, v, 0, 0)
  | Channel_site c -> (3, c, 0, 0)
  | Automaton_site i -> (4, i, 0, 0)
  | Location_site { comp; loc } -> (5, comp, 0, loc)
  | Edge_site { comp; edge } -> (5, comp, 1, edge)

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare_severity b.severity a.severity in
      if c <> 0 then c else compare (site_key a.site) (site_key b.site))
    ds

let pp_site (net : Network.t) ppf = function
  | Network_site -> Format.fprintf ppf "network"
  | Clock_site x -> Format.fprintf ppf "clock %s" net.Network.clock_names.(x)
  | Var_site v -> Format.fprintf ppf "var %s" net.Network.var_names.(v)
  | Channel_site c ->
      Format.fprintf ppf "chan %s" net.Network.channels.(c).Channel.name
  | Automaton_site i ->
      Format.fprintf ppf "%s" net.Network.automata.(i).Automaton.name
  | Location_site { comp; loc } ->
      let a = net.Network.automata.(comp) in
      Format.fprintf ppf "%s.%s" a.Automaton.name
        (Automaton.location a loc).Automaton.loc_name
  | Edge_site { comp; edge } ->
      let a = net.Network.automata.(comp) in
      let e = Automaton.edge a edge in
      Format.fprintf ppf "%s: %s -> %s" a.Automaton.name
        (Automaton.location a e.Automaton.src).Automaton.loc_name
        (Automaton.location a e.Automaton.dst).Automaton.loc_name

let pp ?resolve (net : Network.t) ppf d =
  (match resolve with
  | Some f -> (
      match f d.site with
      | Some pos -> Format.fprintf ppf "%s: " pos
      | None -> ())
  | None -> ());
  Format.fprintf ppf "%s[%s] %a: %s"
    (severity_name d.severity)
    (pass_name d.pass) (pp_site net) d.site d.message;
  match d.fix with
  | Some f -> Format.fprintf ppf " (fix: %s)" f
  | None -> ()

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      let n = Uchar.utf_decode_length d in
      (if not (Uchar.utf_decode_is_valid d) then
         Buffer.add_string buf "\\ufffd"
       else
         match s.[i] with
         | '"' -> Buffer.add_string buf "\\\""
         | '\\' -> Buffer.add_string buf "\\\\"
         | '\n' -> Buffer.add_string buf "\\n"
         | '\t' -> Buffer.add_string buf "\\t"
         | c when Char.code c < 0x20 ->
             Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
         | _ -> Buffer.add_substring buf s i n);
      go (i + n)
    end
  in
  go 0;
  Buffer.add_char buf '"';
  Buffer.contents buf
