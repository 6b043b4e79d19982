module Dbm = Ita_dbm.Dbm

type state = { locs : int array; env : int array }
type config = { state : state; zone : Dbm.t }

type label =
  | Internal of { comp : int; edge : int }
  | Sync of {
      chan : Channel.id;
      sender : int * int;
      receivers : (int * int) list;
    }

(* The checker interns discrete states, so most live comparisons hit
   the physical short-circuit. *)
let state_equal s1 s2 = s1 == s2 || (s1.locs = s2.locs && s1.env = s2.env)
let state_hash s = Hashtbl.hash (s.locs, s.env)

let loc_kind (net : Network.t) st i =
  (Automaton.location net.automata.(i) st.locs.(i)).Automaton.kind

let any_committed net st =
  let n = Array.length st.locs in
  let rec go i = i < n && (loc_kind net st i = Automaton.Committed || go (i + 1)) in
  go 0

let any_urgent_loc net st =
  let n = Array.length st.locs in
  let rec go i = i < n && (loc_kind net st i = Automaton.Urgent || go (i + 1)) in
  go 0

(* Is some urgent-channel synchronization enabled in the discrete state?
   Urgent edges have no clock guards (checked at build time), so this
   only inspects data guards. *)
let urgent_sync_enabled (net : Network.t) st =
  let n = Array.length net.automata in
  let data_enabled (e : Automaton.edge) = Guard.data_holds st.env e.guard in
  let edge_with i pred =
    let a = net.automata.(i) in
    List.exists
      (fun ei ->
        let e = Automaton.edge a ei in
        pred e && data_enabled e)
      (Automaton.out_edges a st.locs.(i))
  in
  let chan_enabled c (ch : Channel.t) =
    ch.urgent
    &&
    let sender_at i = edge_with i (fun e -> e.sync = Automaton.Send c) in
    let receiver_at i = edge_with i (fun e -> e.sync = Automaton.Recv c) in
    match ch.kind with
    | Channel.Broadcast ->
        let rec go i = i < n && (sender_at i || go (i + 1)) in
        go 0
    | Channel.Binary ->
        let rec go i =
          i < n
          && ((sender_at i
              && (let rec har j =
                    j < n && (((j <> i) && receiver_at j) || har (j + 1))
                  in
                  har 0))
             || go (i + 1))
        in
        go 0
  in
  let found = ref false in
  Array.iteri (fun c ch -> if (not !found) && chan_enabled c ch then found := true)
    net.channels;
  !found

let delay_allowed net st =
  (not (any_committed net st))
  && (not (any_urgent_loc net st))
  && not (urgent_sync_enabled net st)

let apply_invariants (net : Network.t) st z =
  Array.iteri
    (fun i l ->
      let inv = (Automaton.location net.automata.(i) l).Automaton.invariant in
      if inv.Guard.clocks <> [] then Guard.apply st.env inv z)
    st.locs

(* Clocks inactive at every component's current location carry no
   information: pin them to 0 so that zones differing only in dead
   clocks coincide (active-clock reduction, always on).  Clocks the
   network pins are left alone. *)
let normalize_inactive (net : Network.t) st z =
  for x = 1 to Array.length net.Network.clock_names - 1 do
    if not (Network.live_clock net st.locs x) then Dbm.reset z x 0
  done

(* Resolve the per-state Extra+LU constants: the bound for a clock is
   the max over components of the location-indexed static analysis,
   floored by the network-wide base (where query constants live).
   Read by the Extra+LU extrapolation below and, over the same tables,
   by certificate emission and checking. *)
let lu_bounds (net : Network.t) st =
  let n = Array.length net.Network.clock_names in
  let l = Array.copy net.Network.floor in
  let u = Array.copy net.Network.floor in
  Array.iteri
    (fun i li ->
      let ll = net.Network.lloc.(i).(li) and uu = net.Network.uloc.(i).(li) in
      for x = 1 to n - 1 do
        if ll.(x) > l.(x) then l.(x) <- ll.(x);
        if uu.(x) > u.(x) then u.(x) <- uu.(x)
      done)
    st.locs;
  (l, u)

(* Delay-close [z] in discrete state [st]: up, then invariants, then
   Extra+LU extrapolation, then active-clock reduction.  [z] must
   already satisfy the invariants. *)
let delay_close net st z =
  if delay_allowed net st then begin
    Dbm.up z;
    apply_invariants net st z
  end;
  let l, u = lu_bounds net st in
  Dbm.extrapolate_lu z l u;
  normalize_inactive net st z

let initial (net : Network.t) =
  let locs = Array.map (fun (a : Automaton.t) -> a.initial) net.automata in
  let env = Array.copy net.var_init in
  let st = { locs; env } in
  let z = Dbm.zero (Network.n_clocks net) in
  apply_invariants net st z;
  delay_close net st z;
  { state = st; zone = z }

(* One discrete step: [parts] is the ordered list of participating
   (component, edge) pairs, the sender first.  Returns [None] when the
   step is disabled by clock guards or the target invariants. *)
let fire (net : Network.t) c parts =
  let z = Dbm.copy c.zone in
  (* clock guards are evaluated under the pre-update environment *)
  List.iter
    (fun (i, ei) ->
      let e = Automaton.edge net.automata.(i) ei in
      Guard.apply c.state.env e.guard z)
    parts;
  if Dbm.is_empty z then Option.None
  else begin
    let env = Array.copy c.state.env in
    let locs = Array.copy c.state.locs in
    List.iter
      (fun (i, ei) ->
        let e = Automaton.edge net.automata.(i) ei in
        Update.apply ~ranges:net.var_ranges env z e.update;
        locs.(i) <- e.dst)
      parts;
    let st = { locs; env } in
    apply_invariants net st z;
    if Dbm.is_empty z then Option.None
    else begin
      delay_close net st z;
      if Dbm.is_empty z then Option.None else Some { state = st; zone = z }
    end
  end

let successors (net : Network.t) c =
  let st = c.state in
  let n = Array.length net.automata in
  let committed = any_committed net st in
  let committed_ok parts =
    (not committed)
    || List.exists
         (fun (i, ei) ->
           let e = Automaton.edge net.automata.(i) ei in
           (Automaton.location net.automata.(i) e.Automaton.src).Automaton.kind
           = Automaton.Committed)
         parts
  in
  let data_enabled (i, ei) =
    Guard.data_holds st.env (Automaton.edge net.automata.(i) ei).Automaton.guard
  in
  let acc = ref [] in
  let emit label parts =
    if committed_ok parts then
      match fire net c parts with
      | Some c' -> acc := (label, c') :: !acc
      | None -> ()
  in
  (* internal transitions *)
  for i = 0 to n - 1 do
    let a = net.automata.(i) in
    List.iter
      (fun ei ->
        let e = Automaton.edge a ei in
        if e.sync = Automaton.NoSync && data_enabled (i, ei) then
          emit (Internal { comp = i; edge = ei }) [ (i, ei) ])
      (Automaton.out_edges a st.locs.(i))
  done;
  (* synchronizations, channel by channel *)
  let edges_on i pred =
    let a = net.automata.(i) in
    List.filter
      (fun ei -> pred (Automaton.edge a ei) && data_enabled (i, ei))
      (Automaton.out_edges a st.locs.(i))
  in
  Array.iteri
    (fun ch (chan : Channel.t) ->
      match chan.kind with
      | Channel.Binary ->
          for i = 0 to n - 1 do
            let sends = edges_on i (fun e -> e.sync = Automaton.Send ch) in
            if sends <> [] then
              for j = 0 to n - 1 do
                if j <> i then
                  let recvs = edges_on j (fun e -> e.sync = Automaton.Recv ch) in
                  List.iter
                    (fun se ->
                      List.iter
                        (fun re ->
                          emit
                            (Sync
                               {
                                 chan = ch;
                                 sender = (i, se);
                                 receivers = [ (j, re) ];
                               })
                            [ (i, se); (j, re) ])
                        recvs)
                    sends
              done
          done
      | Channel.Broadcast ->
          for i = 0 to n - 1 do
            let sends = edges_on i (fun e -> e.sync = Automaton.Send ch) in
            List.iter
              (fun se ->
                (* every other component that can receive must receive;
                   multiple enabled receiving edges in one component are a
                   nondeterministic choice, hence the cartesian product *)
                let choices = ref [ [] ] in
                for j = n - 1 downto 0 do
                  if j <> i then
                    let recvs = edges_on j (fun e -> e.sync = Automaton.Recv ch) in
                    if recvs <> [] then
                      choices :=
                        List.concat_map
                          (fun rest ->
                            List.map (fun re -> (j, re) :: rest) recvs)
                          !choices
                done;
                List.iter
                  (fun recvs ->
                    emit
                      (Sync { chan = ch; sender = (i, se); receivers = recvs })
                      ((i, se) :: recvs))
                  !choices)
              sends
          done)
    net.channels;
  List.rev !acc

let zone_of_goal (_net : Network.t) c g ~comp_locs =
  let at_locs =
    List.for_all (fun (i, l) -> c.state.locs.(i) = l) comp_locs
  in
  if (not at_locs) || not (Guard.data_holds c.state.env g) then Option.None
  else begin
    let z = Dbm.copy c.zone in
    Guard.apply c.state.env g z;
    if Dbm.is_empty z then Option.None else Some z
  end

let pp_label (net : Network.t) ppf = function
  | Internal { comp; edge } ->
      let a = net.automata.(comp) in
      let e = Automaton.edge a edge in
      Format.fprintf ppf "%s: %s -> %s" a.Automaton.name
        (Automaton.location a e.Automaton.src).Automaton.loc_name
        (Automaton.location a e.Automaton.dst).Automaton.loc_name
  | Sync { chan; sender = (i, _); receivers } ->
      let ch = net.channels.(chan) in
      Format.fprintf ppf "%s! by %s (%d receivers)" ch.Channel.name
        net.automata.(i).Automaton.name
        (List.length receivers)

let pp_state (net : Network.t) ppf st =
  Network.pp_locs net ppf st.locs;
  Format.fprintf ppf "  {";
  Array.iteri
    (fun v x ->
      if v > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%s=%d" net.var_names.(v) x)
    st.env;
  Format.fprintf ppf "}"
