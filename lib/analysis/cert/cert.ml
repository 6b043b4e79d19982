(* Verdict certificates: emission-side data model, versioned on-disk
   format, and the independent checker.

   A certificate for an unreachable / sup verdict is the explorer's
   final passed-list antichain: per discrete state its stored (Extra+LU
   extrapolated, inactive clocks freed) zones.  The checker re-derives
   every obligation with the naive {!Reference} semantics — exact DBM
   successor computation, with coverage by [Dbm.subset] as the only
   primitive shared with the explorer — so a bug anywhere in the
   optimizing pipeline (flow refinement, interning, packed keys,
   sharded exploration, Extra+LU extrapolation) cannot survive
   certification unless the independent replay reproduces it.

   Soundness is self-contained: [check] accepts only certificates that
   prove their verdict for the given network and goal, regardless of
   who produced them. *)

open Ita_ta
module Dbm = Ita_dbm.Dbm

let version = 3

type goal = { comp_locs : (int * int) list; guard : Guard.t }
type sup_kind = Attained | Approached

type verdict =
  | Unreachable
  | Sup of { clock : Guard.clock; value : int; kind : sup_kind }
  | Reachable of Semantics.label list

type entry = { st : Semantics.state; zones : Dbm.t list }

type query_cert = { index : int; verdict : verdict; entries : entry list }

type t = { fingerprint : int; queries : query_cert list }

type obligation =
  | Format
  | Fingerprint
  | Initiation
  | Consecution
  | Judgment
  | Witness

type failure = { obligation : obligation; message : string }

type stats = { checked_states : int; checked_zones : int }

let obligation_name = function
  | Format -> "format"
  | Fingerprint -> "fingerprint"
  | Initiation -> "initiation"
  | Consecution -> "consecution"
  | Judgment -> "judgment"
  | Witness -> "witness"

(* Stable exit codes for [tamc certify]; 1/2 stay free for usage and
   I/O errors, as in the other subcommands, and 5 stays unassigned (it
   named the slice mask of version-2 certificates). *)
let exit_code = function
  | Format -> 3
  | Fingerprint -> 4
  | Initiation -> 6
  | Consecution -> 7
  | Judgment -> 8
  | Witness -> 9

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

(* Ties a certificate to the model it certifies.  The pretty-printed
   network is a full structural rendering, so any edit to guards,
   updates, invariants or topology changes the fingerprint; the counts
   guard against printer collisions. *)
let fingerprint (net : Network.t) =
  let s = Format.asprintf "%a" Pretty.pp_network net in
  Hashtbl.hash
    ( s,
      String.length s,
      Array.length net.Network.automata,
      Array.length net.Network.clock_names,
      Array.length net.Network.var_names )
  land max_int

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let bpf = Printf.bprintf

let write_label buf = function
  | Semantics.Internal { comp; edge } -> bpf buf "step internal %d %d\n" comp edge
  | Semantics.Sync { chan; sender = si, se; receivers } ->
      bpf buf "step sync %d %d %d %d" chan si se (List.length receivers);
      List.iter (fun (ri, re) -> bpf buf " %d %d" ri re) receivers;
      bpf buf "\n"

let write_query buf (q : query_cert) =
  bpf buf "begin-query %d\n" q.index;
  (match q.verdict with
  | Unreachable -> bpf buf "verdict unreachable\n"
  | Sup { clock; value; kind } ->
      bpf buf "verdict sup %d %d %s\n" clock value
        (match kind with Attained -> "attained" | Approached -> "approached")
  | Reachable labels ->
      bpf buf "verdict reachable %d\n" (List.length labels);
      List.iter (write_label buf) labels);
  bpf buf "states %d\n" (List.length q.entries);
  List.iter
    (fun e ->
      let locs = Array.to_list e.st.Semantics.locs in
      let env = Array.to_list e.st.Semantics.env in
      bpf buf "state %d" (List.length locs);
      List.iter (fun x -> bpf buf " %d" x) locs;
      bpf buf " %d" (List.length env);
      List.iter (fun x -> bpf buf " %d" x) env;
      bpf buf "\n";
      bpf buf "zones %d\n" (List.length e.zones);
      List.iter
        (fun z ->
          let dim, m = Dbm.to_encoded z in
          bpf buf "zone %d" dim;
          Array.iter (fun x -> bpf buf " %d" x) m;
          bpf buf "\n")
        e.zones)
    q.entries;
  bpf buf "end-query\n"

let to_string (t : t) =
  let buf = Buffer.create 4096 in
  bpf buf "tamc-cert %d\n" version;
  bpf buf "fingerprint %d\n" t.fingerprint;
  bpf buf "queries %d\n" (List.length t.queries);
  List.iter (write_query buf) t.queries;
  bpf buf "end\n";
  Buffer.contents buf

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

exception Parse of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let parse (s : string) : (t, failure) result =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
    |> Array.of_list
  in
  let pos = ref 0 in
  let next () =
    if !pos >= Array.length lines then parse_error "unexpected end of file"
    else begin
      let l = lines.(!pos) in
      incr pos;
      String.split_on_char ' ' (String.trim l)
      |> List.filter (fun t -> t <> "")
    end
  in
  let int_of tok =
    match int_of_string_opt tok with
    | Some i -> i
    | None -> parse_error "expected an integer, got %S" tok
  in
  let ints = List.map int_of in
  let tagged tag =
    match next () with
    | t :: rest when t = tag -> rest
    | t :: _ -> parse_error "expected %S, got %S" tag t
    | [] -> parse_error "expected %S, got an empty line" tag
  in
  let parse_label = function
    | [ "internal"; c; e ] ->
        Semantics.Internal { comp = int_of c; edge = int_of e }
    | "sync" :: chan :: si :: se :: n :: rest ->
        let n = int_of n in
        let rest = ints rest in
        if List.length rest <> 2 * n then
          parse_error "sync step: expected %d receiver pairs" n;
        let rec pairs = function
          | [] -> []
          | a :: b :: tl -> (a, b) :: pairs tl
          | _ -> parse_error "sync step: odd receiver list"
        in
        Semantics.Sync
          {
            chan = int_of chan;
            sender = (int_of si, int_of se);
            receivers = pairs rest;
          }
    | _ -> parse_error "malformed witness step"
  in
  let parse_entry () =
    match tagged "state" with
    | nlocs :: rest ->
        let nlocs = int_of nlocs in
        let rest = ints rest in
        if List.length rest < nlocs + 1 then parse_error "state: short line";
        let locs = Array.of_list (List.filteri (fun i _ -> i < nlocs) rest) in
        let rest = List.filteri (fun i _ -> i >= nlocs) rest in
        let nvars, env =
          match rest with
          | nvars :: env -> (nvars, Array.of_list env)
          | [] -> parse_error "state: missing variable count"
        in
        if Array.length env <> nvars then
          parse_error "state: expected %d variables, got %d" nvars
            (Array.length env);
        let nz =
          match tagged "zones" with
          | [ n ] -> int_of n
          | _ -> parse_error "zones: malformed count"
        in
        let zones =
          List.init nz (fun _ ->
              match tagged "zone" with
              | dim :: rest ->
                  let dim = int_of dim in
                  let m = Array.of_list (ints rest) in
                  if Array.length m <> dim * dim then
                    parse_error "zone: expected %d entries, got %d" (dim * dim)
                      (Array.length m);
                  Dbm.of_encoded dim m
              | [] -> parse_error "zone: empty line")
        in
        { st = { Semantics.locs; env }; zones }
    | [] -> parse_error "state: empty line"
  in
  let parse_query () =
    let index =
      match tagged "begin-query" with
      | [ i ] -> int_of i
      | _ -> parse_error "begin-query: malformed"
    in
    let verdict =
      match tagged "verdict" with
      | [ "unreachable" ] -> Unreachable
      | [ "sup"; clock; value; kind ] ->
          Sup
            {
              clock = int_of clock;
              value = int_of value;
              kind =
                (match kind with
                | "attained" -> Attained
                | "approached" -> Approached
                | k -> parse_error "unknown sup kind %S" k);
            }
      | [ "reachable"; n ] ->
          let n = int_of n in
          Reachable (List.init n (fun _ -> parse_label (tagged "step")))
      | _ -> parse_error "malformed verdict"
    in
    let n_entries =
      match tagged "states" with
      | [ n ] -> int_of n
      | _ -> parse_error "states: malformed count"
    in
    let entries = List.init n_entries (fun _ -> parse_entry ()) in
    (match next () with
    | [ "end-query" ] -> ()
    | _ -> parse_error "expected end-query");
    { index; verdict; entries }
  in
  match
    let v =
      match tagged "tamc-cert" with
      | [ v ] -> int_of v
      | _ -> parse_error "malformed header"
    in
    if v <> version then
      parse_error "unsupported certificate version %d (checker speaks %d)" v
        version;
    let fp =
      match tagged "fingerprint" with
      | [ f ] -> int_of f
      | _ -> parse_error "malformed fingerprint"
    in
    let nq =
      match tagged "queries" with
      | [ n ] -> int_of n
      | _ -> parse_error "malformed query count"
    in
    let queries = List.init nq (fun _ -> parse_query ()) in
    (match next () with
    | [ "end" ] -> ()
    | _ -> parse_error "expected end");
    { fingerprint = fp; queries }
  with
  | t -> Ok t
  | exception Parse msg -> Error { obligation = Format; message = msg }
  | exception Invalid_argument msg ->
      Error { obligation = Format; message = msg }

let load path : (t, failure) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> parse s
  | exception Sys_error msg -> Error { obligation = Format; message = msg }

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

exception Fail of failure

let fail obligation fmt =
  Format.kasprintf (fun message -> raise (Fail { obligation; message })) fmt

let validate_goal (net : Network.t) (goal : goal) =
  List.iter
    (fun (i, l) ->
      if i < 0 || i >= Array.length net.Network.automata then
        fail Format "goal component %d out of range" i;
      if l < 0 || l >= Array.length net.Network.automata.(i).Automaton.locations
      then fail Format "goal location %d out of range" l)
    goal.comp_locs

(* ---- structural validation of the stored antichain ---- *)

let state_key (st : Semantics.state) = (st.Semantics.locs, st.Semantics.env)

let validate_entries (net : Network.t) entries =
  let nc = Array.length net.Network.automata in
  let ncl = Array.length net.Network.clock_names in
  let nv = Array.length net.Network.var_names in
  let seen = Hashtbl.create (List.length entries * 2) in
  List.iteri
    (fun k (e : entry) ->
      let where = Printf.sprintf "state #%d" k in
      if Array.length e.st.Semantics.locs <> nc then
        fail Format "%s: expected %d locations" where nc;
      if Array.length e.st.Semantics.env <> nv then
        fail Format "%s: expected %d variables" where nv;
      Array.iteri
        (fun i l ->
          let a = net.Network.automata.(i) in
          if l < 0 || l >= Array.length a.Automaton.locations then
            fail Format "%s: location %d out of range for %s" where l
              a.Automaton.name)
        e.st.Semantics.locs;
      if e.zones = [] then fail Format "%s: no zones" where;
      List.iter
        (fun z ->
          if Dbm.dim z <> ncl then
            fail Format "%s: zone dimension %d, expected %d" where (Dbm.dim z)
              ncl;
          if Dbm.is_empty z then fail Format "%s: empty stored zone" where)
        e.zones;
      if Hashtbl.mem seen (state_key e.st) then
        fail Format "%s: duplicate discrete state" where;
      Hashtbl.add seen (state_key e.st) k)
    entries;
  seen

(* ---- the three obligations ---- *)

(* The certified invariant is the union of the stored zones, so a
   zone is covered exactly when one stored zone of its discrete state
   includes it. *)
let covered_by (e : entry) z = List.exists (fun w -> Dbm.subset z w) e.zones

let check_consecution (net : Network.t) entries index =
  let zone_count = ref 0 in
  let earr = Array.of_list entries in
  let lookup st =
    match Hashtbl.find_opt index (state_key st) with
    | Some k -> earr.(k)
    | None -> raise Not_found
  in
  List.iteri
    (fun k (e : entry) ->
      let st = e.st in
      (* delay coverage: when time may elapse, the exact time elapse of
         every stored zone stays covered *)
      if Reference.delay_allowed net st then
        List.iter
          (fun z ->
            incr zone_count;
            let d = Reference.delay net st z in
            if not (Dbm.is_empty d) then
              if not (covered_by e d) then
                fail Consecution
                  "state #%d: delay successor escapes the certified antichain"
                  k)
          e.zones;
      (* discrete coverage: every exact successor of every stored zone
         lands in a stored zone of its target state *)
      List.iter
        (fun (j : Reference.joint) ->
          (* a transition whose guards already contradict the invariants
             (or each other) at this discrete state can never fire from
             any covered valuation: no obligations *)
          let zfire = Reference.inv_zone net st in
          List.iter
            (fun (i, ei) ->
              let ed = Automaton.edge net.Network.automata.(i) ei in
              Guard.apply st.Semantics.env ed.Automaton.guard zfire)
            j.Reference.parts;
          if not (Dbm.is_empty zfire) then begin
            let what =
              Format.asprintf "state #%d: transition %a" k
                (Semantics.pp_label net) j.Reference.label
            in
            let target = ref None in
            List.iter
              (fun z ->
                incr zone_count;
                match Reference.fire net st z j.Reference.parts with
                | None -> ()
                | Some (st', z') ->
                    let e' =
                      match !target with
                      | Some e' -> e'
                      | None ->
                          let e' =
                            try lookup st'
                            with Not_found ->
                              fail Consecution
                                "%s: successor state not in the certified \
                                 antichain"
                                what
                          in
                          target := Some e';
                          e'
                    in
                    if not (covered_by e' z') then
                      fail Consecution
                        "%s: discrete successor escapes the certified \
                         antichain"
                        what)
              e.zones
          end)
        (Reference.joint_transitions net st))
    entries;
  !zone_count

let check_initiation (net : Network.t) entries index =
  let st0, z0 = Reference.initial net in
  if not (Dbm.is_empty z0) then begin
    match Hashtbl.find_opt index (state_key st0) with
    | None -> fail Initiation "the initial state is not in the certified antichain"
    | Some k ->
        let e = List.nth entries k in
        if not (covered_by e z0) then
          fail Initiation "the initial zone escapes the certified antichain"
  end

let goal_entries goal entries =
  List.filter
    (fun (e : entry) ->
      List.for_all
        (fun (i, l) -> e.st.Semantics.locs.(i) = l)
        goal.comp_locs
      && Guard.data_holds e.st.Semantics.env goal.guard)
    entries

let check_unreachable_judgment goal entries =
  List.iter
    (fun (e : entry) ->
      List.iter
        (fun z ->
          let z = Dbm.copy z in
          Guard.apply e.st.Semantics.env goal.guard z;
          if not (Dbm.is_empty z) then
            fail Judgment "a certified state satisfies the goal")
        e.zones)
    (goal_entries goal entries)

(* Both tests read each goal-state zone intersected with the goal guard
   and the state's invariants: the valuations a run can hold there.  The
   bound then holds for every run; attainment needs a certified
   valuation at the claimed bound, which a replayed run would have to
   confirm. *)
let check_sup_judgment (net : Network.t) goal ~clock ~value ~kind entries =
  if clock <= 0 || clock >= Array.length net.Network.clock_names then
    fail Format "sup clock %d out of range" clock;
  let bound =
    match kind with
    | Attained -> Ita_dbm.Bound.le value
    | Approached -> Ita_dbm.Bound.lt value
  in
  let best = ref None in
  List.iter
    (fun (e : entry) ->
      List.iter
        (fun z ->
          let z = Dbm.copy z in
          Guard.apply e.st.Semantics.env goal.guard z;
          Reference.apply_invariants net e.st z;
          if not (Dbm.is_empty z) then begin
            let s = Dbm.sup z clock in
            if Ita_dbm.Bound.lt_bound bound s then
              fail Judgment
                "a certified goal state exceeds the claimed sup of clock %s"
                net.Network.clock_names.(clock);
            match !best with
            | Some b when not (Ita_dbm.Bound.lt_bound b s) -> ()
            | _ -> best := Some s
          end)
        e.zones)
    (goal_entries goal entries);
  match !best with
  | Some b when b = bound -> ()
  | Some _ ->
      fail Judgment
        "the claimed sup of clock %s is not attained by any certified state"
        net.Network.clock_names.(clock)
  | None ->
      fail Judgment "no certified state satisfies the goal, yet a sup is claimed"

(* ---- witness replay ---- *)

let check_witness (net : Network.t) goal labels =
  let st, z =
    List.fold_left
      (fun cfg label ->
        match Reference.step_exact net cfg label with
        | None ->
            fail Witness "witness step %a is not a real transition"
              (Semantics.pp_label net) label
        | Some cfg' -> cfg')
      (Reference.initial_exact net)
      labels
  in
  let z = Dbm.copy z in
  Guard.apply st.Semantics.env goal.guard z;
  if
    not
      (List.for_all (fun (i, l) -> st.Semantics.locs.(i) = l) goal.comp_locs
      && Guard.data_holds st.Semantics.env goal.guard
      && not (Dbm.is_empty z))
  then fail Witness "the replayed witness does not satisfy the goal"

(* ---- entry point ---- *)

let check (net : Network.t) ~(goal : goal) (q : query_cert) :
    (stats, failure) result =
  try
    validate_goal net goal;
    match q.verdict with
    | Reachable labels ->
        check_witness net goal labels;
        Ok { checked_states = 0; checked_zones = 0 }
    | Unreachable | Sup _ ->
        let index = validate_entries net q.entries in
        check_initiation net q.entries index;
        (* judgment before consecution: it is cheap, and a mutation
           that breaks the verdict claim is reported as the verdict's
           failure even when it also breaks induction *)
        (match q.verdict with
        | Unreachable -> check_unreachable_judgment goal q.entries
        | Sup { clock; value; kind } ->
            check_sup_judgment net goal ~clock ~value ~kind q.entries
        | Reachable _ -> assert false);
        let zones = check_consecution net q.entries index in
        Ok { checked_states = List.length q.entries; checked_zones = zones }
  with Fail f -> Error f
