(* Verdict certificates: emission-side data model, versioned on-disk
   format, and the independent checker.

   A certificate for an unreachable / sup verdict is the explorer's
   final passed-list antichain translated back to the original
   pre-slicing model: per discrete state its stored (Extra+LU
   extrapolated, inactive clocks freed) zones.  The checker re-derives
   every obligation with the naive {!Reference} semantics — exact DBM
   successor computation, with coverage by [Dbm.subset] as the only
   primitive shared with the explorer — so a bug anywhere in the
   optimizing pipeline (flow refinement, slicing, interning, packed
   keys, sharded exploration, Extra+LU extrapolation) cannot survive
   certification unless the independent replay reproduces it.

   Soundness is self-contained: [check] accepts only certificates that
   prove their verdict for the given network and goal, regardless of
   who produced them.  The mask-isolation validations exist exactly for
   this — a certificate may declare components/clocks/variables outside
   the certified cone, and the checker first proves the declaration
   harmless (frozen components cannot write, synchronize into, or be
   read by the cone) before trusting it. *)

open Ita_ta
module Dbm = Ita_dbm.Dbm

let version = 2

type goal = { comp_locs : (int * int) list; guard : Guard.t }
type sup_kind = Attained | Approached

type verdict =
  | Unreachable
  | Sup of { clock : Guard.clock; value : int; kind : sup_kind }
  | Reachable of Semantics.label list

type entry = { st : Semantics.state; zones : Dbm.t list }

type query_cert = {
  index : int;
  verdict : verdict;
  frozen_comps : int list;
  removed_clocks : int list;
  frozen_vars : int list;
  entries : entry list;
}

type t = { fingerprint : int; queries : query_cert list }

type obligation =
  | Format
  | Fingerprint
  | Mask
  | Initiation
  | Consecution
  | Judgment
  | Witness

type failure = { obligation : obligation; message : string }

type stats = { checked_states : int; checked_zones : int }

let obligation_name = function
  | Format -> "format"
  | Fingerprint -> "fingerprint"
  | Mask -> "mask"
  | Initiation -> "initiation"
  | Consecution -> "consecution"
  | Judgment -> "judgment"
  | Witness -> "witness"

(* Stable exit codes for [tamc certify]; 1/2 stay free for usage and
   I/O errors, as in the other subcommands. *)
let exit_code = function
  | Format -> 3
  | Fingerprint -> 4
  | Mask -> 5
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

let write_ints buf tag xs =
  bpf buf "%s %d" tag (List.length xs);
  List.iter (fun x -> bpf buf " %d" x) xs;
  bpf buf "\n"

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
  write_ints buf "mask-comps" q.frozen_comps;
  write_ints buf "mask-clocks" q.removed_clocks;
  write_ints buf "mask-vars" q.frozen_vars;
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
  let counted tag =
    match tagged tag with
    | n :: rest ->
        let n = int_of n in
        let rest = ints rest in
        if List.length rest <> n then
          parse_error "%s: expected %d values, got %d" tag n (List.length rest);
        rest
    | [] -> parse_error "%s: missing count" tag
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
    let frozen_comps = counted "mask-comps" in
    let removed_clocks = counted "mask-clocks" in
    let frozen_vars = counted "mask-vars" in
    let n_entries =
      match tagged "states" with
      | [ n ] -> int_of n
      | _ -> parse_error "states: malformed count"
    in
    let entries = List.init n_entries (fun _ -> parse_entry ()) in
    (match next () with
    | [ "end-query" ] -> ()
    | _ -> parse_error "expected end-query");
    { index; verdict; frozen_comps; removed_clocks; frozen_vars; entries }
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

let mask_of_query (net : Network.t) (q : query_cert) : Reference.mask =
  let nc = Array.length net.Network.automata in
  let ncl = Array.length net.Network.clock_names in
  let nv = Array.length net.Network.var_names in
  let mask = Reference.no_mask net in
  let set tag arr n i =
    if i < 0 || i >= n then fail Format "%s index %d out of range" tag i;
    arr.(i) <- true
  in
  List.iter (set "mask component" mask.Reference.frozen_comps nc) q.frozen_comps;
  List.iter (set "mask clock" mask.Reference.removed_clocks ncl) q.removed_clocks;
  List.iter (set "mask variable" mask.Reference.frozen_vars nv) q.frozen_vars;
  if mask.Reference.removed_clocks.(0) then
    fail Format "the reference clock cannot be removed";
  mask

(* Environment canonicalization: frozen variables are invisible to the
   certified cone (read isolation is validated below), so states are
   matched with them pinned at their initial values. *)
let canon_env (net : Network.t) (mask : Reference.mask) env =
  let env = Array.copy env in
  Array.iteri
    (fun v frozen -> if frozen then env.(v) <- net.Network.var_init.(v))
    mask.Reference.frozen_vars;
  env

(* ---- mask isolation: prove the declared mask harmless ---- *)

(* Locations of [a] reachable from its initial location over its own
   edges, ignoring guards — a sound over-approximation of where the
   component can ever be inside the full product. *)
let bfs_locs (a : Automaton.t) =
  let n = Array.length a.Automaton.locations in
  let seen = Array.make n false in
  let rec go l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter
        (fun ei -> go (Automaton.edge a ei).Automaton.dst)
        (Automaton.out_edges a l)
    end
  in
  go a.Automaton.initial;
  seen

let validate_mask (net : Network.t) (mask : Reference.mask) =
  let nc = Array.length net.Network.automata in
  let frozen i = mask.Reference.frozen_comps.(i) in
  let removed x = mask.Reference.removed_clocks.(x) in
  let fvar v = mask.Reference.frozen_vars.(v) in
  let comp_name i = net.Network.automata.(i).Automaton.name in
  (* (1) write and synchronization isolation of frozen components *)
  let unmasked_has_sync c role =
    let rec go i =
      i < nc
      && (((not (frozen i))
          && Array.exists
               (fun (e : Automaton.edge) ->
                 match (e.Automaton.sync, role) with
                 | Automaton.Send c', `Send -> c' = c
                 | Automaton.Recv c', `Recv -> c' = c
                 | _ -> false)
               net.Network.automata.(i).Automaton.edges)
         || go (i + 1))
    in
    go 0
  in
  for i = 0 to nc - 1 do
    if frozen i then begin
      let a = net.Network.automata.(i) in
      let reach = bfs_locs a in
      Array.iteri
        (fun _ei (e : Automaton.edge) ->
          if reach.(e.Automaton.src) then begin
            List.iter
              (function
                | Update.Set_var (v, _) ->
                    if not (fvar v) then
                      fail Mask
                        "frozen component %s can write unmasked variable %s"
                        (comp_name i) net.Network.var_names.(v)
                | Update.Reset_clock (x, _) ->
                    if not (removed x) then
                      fail Mask
                        "frozen component %s can reset unmasked clock %s"
                        (comp_name i) net.Network.clock_names.(x))
              e.Automaton.update;
            match e.Automaton.sync with
            | Automaton.NoSync -> ()
            | Automaton.Send c ->
                if unmasked_has_sync c `Recv then
                  fail Mask
                    "frozen component %s can send on %s, which unmasked \
                     components receive"
                    (comp_name i) net.Network.channels.(c).Channel.name
            | Automaton.Recv c -> (
                match net.Network.channels.(c).Channel.kind with
                | Channel.Broadcast -> ()
                  (* a broadcast receiver never blocks nor moves its
                     sender; its own moves are covered by write
                     isolation *)
                | Channel.Binary ->
                    if unmasked_has_sync c `Send then
                      fail Mask
                        "frozen component %s can complete binary %s for \
                         unmasked senders"
                        (comp_name i) net.Network.channels.(c).Channel.name)
          end)
        a.Automaton.edges
    end
  done;
  (* (2) read isolation: the certified cone never reads frozen
     variables, and invariants never test removed clocks *)
  let check_no_frozen what vars =
    List.iter
      (fun v ->
        if fvar v then
          fail Mask "%s reads frozen variable %s" what net.Network.var_names.(v))
      vars
  in
  let check_guard what ~invariant (g : Guard.t) =
    check_no_frozen what (Expr.bvars g.Guard.data);
    List.iter
      (fun (at : Guard.atom) ->
        check_no_frozen what (Expr.ivars at.Guard.bound);
        if invariant && removed at.Guard.clock then
          fail Mask "%s tests removed clock %s" what
            net.Network.clock_names.(at.Guard.clock))
      g.Guard.clocks
  in
  for i = 0 to nc - 1 do
    if not (frozen i) then begin
      let a = net.Network.automata.(i) in
      Array.iter
        (fun (l : Automaton.location) ->
          check_guard
            (Printf.sprintf "invariant of %s.%s" (comp_name i)
               l.Automaton.loc_name)
            ~invariant:true l.Automaton.invariant)
        a.Automaton.locations;
      Array.iter
        (fun (e : Automaton.edge) ->
          let what = Printf.sprintf "an edge of %s" (comp_name i) in
          check_guard what ~invariant:false e.Automaton.guard;
          List.iter
            (function
              | Update.Set_var (v, rhs) ->
                  if not (fvar v) then check_no_frozen what (Expr.ivars rhs)
              | Update.Reset_clock (x, rhs) ->
                  if not (removed x) then check_no_frozen what (Expr.ivars rhs))
            e.Automaton.update)
        a.Automaton.edges
    end
  done

let validate_goal (net : Network.t) (mask : Reference.mask) (goal : goal) =
  List.iter
    (fun (i, l) ->
      if i < 0 || i >= Array.length net.Network.automata then
        fail Format "goal component %d out of range" i;
      if l < 0 || l >= Array.length net.Network.automata.(i).Automaton.locations
      then fail Format "goal location %d out of range" l;
      if mask.Reference.frozen_comps.(i) then
        fail Mask "goal watches frozen component %s"
          net.Network.automata.(i).Automaton.name)
    goal.comp_locs;
  List.iter
    (fun v ->
      if mask.Reference.frozen_vars.(v) then
        fail Mask "goal reads frozen variable %s" net.Network.var_names.(v))
    (Expr.bvars goal.guard.Guard.data);
  List.iter
    (fun (at : Guard.atom) ->
      if mask.Reference.removed_clocks.(at.Guard.clock) then
        fail Mask "goal tests removed clock %s"
          net.Network.clock_names.(at.Guard.clock);
      List.iter
        (fun v ->
          if mask.Reference.frozen_vars.(v) then
            fail Mask "goal reads frozen variable %s" net.Network.var_names.(v))
        (Expr.ivars at.Guard.bound))
    goal.guard.Guard.clocks

(* ---- structural validation of the stored antichain ---- *)

let validate_entries (net : Network.t) (mask : Reference.mask) entries =
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
              a.Automaton.name;
          if mask.Reference.frozen_comps.(i) && l <> a.Automaton.initial then
            fail Mask "%s: frozen component %s away from its initial location"
              where a.Automaton.name)
        e.st.Semantics.locs;
      Array.iteri
        (fun v x ->
          if mask.Reference.frozen_vars.(v) && x <> net.Network.var_init.(v)
          then
            fail Mask "%s: frozen variable %s away from its initial value"
              where net.Network.var_names.(v))
        e.st.Semantics.env;
      if e.zones = [] then fail Format "%s: no zones" where;
      List.iter
        (fun z ->
          if Dbm.dim z <> ncl then
            fail Format "%s: zone dimension %d, expected %d" where (Dbm.dim z)
              ncl;
          if Dbm.is_empty z then fail Format "%s: empty stored zone" where;
          let zf = Dbm.copy z in
          for x = 1 to ncl - 1 do
            if mask.Reference.removed_clocks.(x) then Dbm.free zf x
          done;
          if not (Dbm.equal z zf) then
            fail Mask "%s: a stored zone constrains a removed clock" where)
        e.zones;
      let key =
        (e.st.Semantics.locs, canon_env net mask e.st.Semantics.env)
      in
      if Hashtbl.mem seen key then
        fail Format "%s: duplicate discrete state" where;
      Hashtbl.add seen key k)
    entries;
  seen

(* ---- the three obligations ---- *)

(* The certified invariant is the union of the stored zones, so a
   zone is covered exactly when one stored zone of its discrete state
   includes it. *)
let covered_by (e : entry) z = List.exists (fun w -> Dbm.subset z w) e.zones

let check_consecution (net : Network.t) (mask : Reference.mask) entries index =
  let zone_count = ref 0 in
  let earr = Array.of_list entries in
  let lookup st =
    let key = (st.Semantics.locs, canon_env net mask st.Semantics.env) in
    match Hashtbl.find_opt index key with
    | Some k -> earr.(k)
    | None -> raise Not_found
  in
  List.iteri
    (fun k (e : entry) ->
      let st = e.st in
      (* delay coverage: when the unmasked components permit delay, the
         exact time elapse of every stored zone stays covered *)
      if Reference.delay_allowed net mask st then
        List.iter
          (fun z ->
            incr zone_count;
            let d = Reference.delay net mask st z in
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
          let zfire = Reference.inv_zone net mask st in
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
                match Reference.fire net mask st z j.Reference.parts with
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
        (Reference.joint_transitions net mask st))
    entries;
  !zone_count

let check_initiation (net : Network.t) (mask : Reference.mask) entries index =
  let st0, z0 = Reference.initial net mask in
  if not (Dbm.is_empty z0) then begin
    let key = (st0.Semantics.locs, canon_env net mask st0.Semantics.env) in
    match Hashtbl.find_opt index key with
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

let check_sup_judgment (net : Network.t) (mask : Reference.mask) goal ~clock
    ~value ~kind entries =
  if clock <= 0 || clock >= Array.length net.Network.clock_names then
    fail Format "sup clock %d out of range" clock;
  if mask.Reference.removed_clocks.(clock) then
    fail Mask "sup clock %s was removed by the mask"
      net.Network.clock_names.(clock);
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
  let meets_goal (st, z) =
    List.for_all (fun (i, l) -> st.Semantics.locs.(i) = l) goal.comp_locs
    && Guard.data_holds st.Semantics.env goal.guard
    &&
    let z = Dbm.copy z in
    Guard.apply st.Semantics.env goal.guard z;
    not (Dbm.is_empty z)
  in
  let final =
    List.fold_left
      (fun cfgs label ->
        match Reference.step_exact net cfgs label with
        | [] ->
            fail Witness "witness step %a is not a real transition"
              (Semantics.pp_label net) label
        | cfgs' -> cfgs')
      [ Reference.initial_exact net ]
      labels
  in
  if not (List.exists meets_goal final) then
    fail Witness "the replayed witness does not satisfy the goal"

(* ---- entry point ---- *)

let check (net : Network.t) ~(goal : goal) (q : query_cert) :
    (stats, failure) result =
  try
    let mask = mask_of_query net q in
    validate_mask net mask;
    validate_goal net mask goal;
    match q.verdict with
    | Reachable labels ->
        check_witness net goal labels;
        Ok { checked_states = 0; checked_zones = 0 }
    | Unreachable | Sup _ ->
        let index = validate_entries net mask q.entries in
        check_initiation net mask q.entries index;
        (* judgment before consecution: it is cheap, and a mutation
           that breaks the verdict claim is reported as the verdict's
           failure even when it also breaks induction *)
        (match q.verdict with
        | Unreachable -> check_unreachable_judgment goal q.entries
        | Sup { clock; value; kind } ->
            check_sup_judgment net mask goal ~clock ~value ~kind q.entries
        | Reachable _ -> assert false);
        let zones = check_consecution net mask q.entries index in
        Ok { checked_states = List.length q.entries; checked_zones = zones }
  with Fail f -> Error f
