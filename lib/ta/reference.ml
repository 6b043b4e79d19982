(* Naive reference semantics for certificate checking.

   This module deliberately re-implements the symbolic successor
   relation from the network definition alone: plain DBM operations, no
   extrapolation, no active-clock reduction, no interning, no sharding.
   {!Semantics} is the optimized twin the explorer runs; an independent
   certificate checker must not trust it, so nothing here calls into it
   beyond sharing its plain [state]/[label] types. *)

module Dbm = Ita_dbm.Dbm

type state = Semantics.state = { locs : int array; env : int array }
type label = Semantics.label

let loc_kind (net : Network.t) (st : state) i =
  (Automaton.location net.Network.automata.(i) st.locs.(i)).Automaton.kind

let apply_invariants (net : Network.t) (st : state) z =
  Array.iteri
    (fun i l ->
      let inv =
        (Automaton.location net.Network.automata.(i) l).Automaton.invariant
      in
      if inv.Guard.clocks <> [] then Guard.apply st.env inv z)
    st.locs

let inv_zone (net : Network.t) (st : state) =
  let z = Dbm.universal (Network.n_clocks net) in
  apply_invariants net st z;
  z

(* Time may not elapse in a committed or urgent location, nor while an
   urgent synchronization is enabled (urgent edges carry no clock
   guards, so data guards decide). *)
let delay_allowed (net : Network.t) (st : state) =
  let n = Array.length net.Network.automata in
  let blocked_kind =
    let rec go i =
      i < n
      && ((match loc_kind net st i with
          | Automaton.Committed | Automaton.Urgent -> true
          | Automaton.Normal -> false)
         || go (i + 1))
    in
    go 0
  in
  (not blocked_kind)
  &&
  let data_enabled (e : Automaton.edge) =
    Guard.data_holds st.env e.Automaton.guard
  in
  let edge_with i pred =
    let a = net.Network.automata.(i) in
    List.exists
      (fun ei ->
        let e = Automaton.edge a ei in
        pred e && data_enabled e)
      (Automaton.out_edges a st.locs.(i))
  in
  let chan_enabled c (ch : Channel.t) =
    ch.Channel.urgent
    &&
    let sender_at i = edge_with i (fun e -> e.Automaton.sync = Automaton.Send c) in
    let receiver_at i =
      edge_with i (fun e -> e.Automaton.sync = Automaton.Recv c)
    in
    match ch.Channel.kind with
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
  let urgent = ref false in
  Array.iteri
    (fun c ch -> if (not !urgent) && chan_enabled c ch then urgent := true)
    net.Network.channels;
  not !urgent

(* Exact time elapse: up then the invariants, nothing else.  The
   stored zones may be abstracted; the successors the checker covers
   with them never are. *)
let delay (net : Network.t) (st : state) z =
  let z = Dbm.copy z in
  Dbm.up z;
  apply_invariants net st z;
  z

type joint = { label : label; parts : (int * int) list }

(* The committed restriction: while some component is in a committed
   location, only transitions with a participant leaving a committed
   location may fire. *)
let committed_ok (net : Network.t) (st : state) =
  let n = Array.length net.Network.automata in
  let rec any_committed i =
    i < n && (loc_kind net st i = Automaton.Committed || any_committed (i + 1))
  in
  let committed = any_committed 0 in
  fun parts ->
    (not committed)
    || List.exists
         (fun (i, ei) ->
           let e = Automaton.edge net.Network.automata.(i) ei in
           (Automaton.location net.Network.automata.(i) e.Automaton.src)
             .Automaton.kind = Automaton.Committed)
         parts

(* All joint transitions whose data guards hold in [st], under the
   committed restriction.  Structure mirrors the optimized enumeration
   so differential tests keep both honest, but the code is
   independent. *)
let joint_transitions (net : Network.t) (st : state) =
  let n = Array.length net.Network.automata in
  let committed_ok = committed_ok net st in
  let data_enabled (i, ei) =
    Guard.data_holds st.env
      (Automaton.edge net.Network.automata.(i) ei).Automaton.guard
  in
  let acc = ref [] in
  let emit label parts =
    if committed_ok parts then acc := { label; parts } :: !acc
  in
  for i = 0 to n - 1 do
    let a = net.Network.automata.(i) in
    List.iter
      (fun ei ->
        let e = Automaton.edge a ei in
        if e.Automaton.sync = Automaton.NoSync && data_enabled (i, ei) then
          emit (Semantics.Internal { comp = i; edge = ei }) [ (i, ei) ])
      (Automaton.out_edges a st.locs.(i))
  done;
  let edges_on i pred =
    let a = net.Network.automata.(i) in
    List.filter
      (fun ei -> pred (Automaton.edge a ei) && data_enabled (i, ei))
      (Automaton.out_edges a st.locs.(i))
  in
  Array.iteri
    (fun ch (chan : Channel.t) ->
      match chan.Channel.kind with
      | Channel.Binary ->
          for i = 0 to n - 1 do
            let sends =
              edges_on i (fun e -> e.Automaton.sync = Automaton.Send ch)
            in
            if sends <> [] then
              for j = 0 to n - 1 do
                if j <> i then
                  let recvs =
                    edges_on j (fun e -> e.Automaton.sync = Automaton.Recv ch)
                  in
                  List.iter
                    (fun se ->
                      List.iter
                        (fun re ->
                          emit
                            (Semantics.Sync
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
            let sends =
              edges_on i (fun e -> e.Automaton.sync = Automaton.Send ch)
            in
            List.iter
              (fun se ->
                let choices = ref [ [] ] in
                for j = n - 1 downto 0 do
                  if j <> i then
                    let recvs =
                      edges_on j (fun e -> e.Automaton.sync = Automaton.Recv ch)
                    in
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
                      (Semantics.Sync
                         { chan = ch; sender = (i, se); receivers = recvs })
                      ((i, se) :: recvs))
                  !choices)
              sends
          done)
    net.Network.channels;
  List.rev !acc

(* One exact discrete step: clock guards under the pre-update
   environment, then the sequential updates, then the target-state
   invariants.  No delay, no abstraction.  [None] when the step is
   disabled (empty zone, or an update leaves a variable range — a
   transition the runtime semantics rejects). *)
let fire (net : Network.t) (st : state) z parts =
  let z = Dbm.copy z in
  List.iter
    (fun (i, ei) ->
      let e = Automaton.edge net.Network.automata.(i) ei in
      Guard.apply st.env e.Automaton.guard z)
    parts;
  if Dbm.is_empty z then None
  else
    match
      let env = Array.copy st.env in
      let locs = Array.copy st.locs in
      List.iter
        (fun (i, ei) ->
          let e = Automaton.edge net.Network.automata.(i) ei in
          Update.apply ~ranges:net.Network.var_ranges env z e.Automaton.update;
          locs.(i) <- e.Automaton.dst)
        parts;
      { locs; env }
    with
    | st' ->
        apply_invariants net st' z;
        if Dbm.is_empty z then None else Some (st', z)
    | exception Update.Out_of_range _ -> None

(* The exact initial configuration: all components at their initial
   locations, variables at their declared initial values, all clocks
   zero, narrowed by the invariants.  Delay is not taken here: the
   delay-coverage obligation extends coverage from the initial point
   onward. *)
let initial (net : Network.t) =
  let locs =
    Array.map (fun (a : Automaton.t) -> a.Automaton.initial) net.Network.automata
  in
  let env = Array.copy net.Network.var_init in
  let st = { locs; env } in
  let z = Dbm.zero (Network.n_clocks net) in
  apply_invariants net st z;
  (st, z)

(* ------------------------------------------------------------------ *)
(* Exact witness replay                                                *)
(* ------------------------------------------------------------------ *)

(* Replaying a claimed counterexample path needs the real
   (maximal-broadcast, committed-restricted) transition relation with
   exact delay closure.  A label names every participant, so each step
   has one configuration. *)

let delay_close_exact net st z =
  if delay_allowed net st then begin
    Dbm.up z;
    apply_invariants net st z
  end

let initial_exact (net : Network.t) =
  let st, z = initial net in
  delay_close_exact net st z;
  (st, z)

(* Is [ (i, ei) ] a structurally valid participant at [st]: the edge
   exists, leaves the current location, and its data guard holds? *)
let participant_ok (net : Network.t) (st : state) (i, ei) sync =
  i >= 0
  && i < Array.length net.Network.automata
  &&
  let a = net.Network.automata.(i) in
  ei >= 0
  && ei < Array.length a.Automaton.edges
  &&
  let e = Automaton.edge a ei in
  e.Automaton.src = st.locs.(i)
  && e.Automaton.sync = sync
  && Guard.data_holds st.env e.Automaton.guard

(* The participants of [label] at [st], sender first and broadcast
   receivers in component order (the order their updates apply in), or
   [None] when the label is not a real transition there: an invalid
   participant, the committed restriction, or a broadcast that leaves
   out a component with an enabled receiving edge (maximality). *)
let parts_of_label (net : Network.t) (st : state) (label : label) =
  let parts =
    match label with
    | Semantics.Internal { comp; edge } ->
        if participant_ok net st (comp, edge) Automaton.NoSync then
          Some [ (comp, edge) ]
        else None
    | Semantics.Sync { chan; sender = (si, se); receivers } -> (
        if chan < 0 || chan >= Array.length net.Network.channels then None
        else if not (participant_ok net st (si, se) (Automaton.Send chan)) then
          None
        else
          let recv_ok r = participant_ok net st r (Automaton.Recv chan) in
          match (net.Network.channels.(chan).Channel.kind, receivers) with
          | Channel.Binary, [ ((ri, _) as r) ] when ri <> si && recv_ok r ->
              Some [ (si, se); r ]
          | Channel.Binary, _ -> None
          | Channel.Broadcast, _ ->
              let receivers = List.sort compare receivers in
              let can_receive j =
                j <> si
                && List.exists
                     (fun ei -> recv_ok (j, ei))
                     (Automaton.out_edges net.Network.automata.(j) st.locs.(j))
              in
              let n = Array.length net.Network.automata in
              if
                List.for_all recv_ok receivers
                && List.map fst receivers
                   = List.filter can_receive (List.init n Fun.id)
              then Some ((si, se) :: receivers)
              else None)
  in
  Option.bind parts (fun p -> if committed_ok net st p then Some p else None)

(* One labelled step with exact delay closure; [None] when the label is
   not a real transition or its step is disabled. *)
let step_exact (net : Network.t) (st, z) (label : label) =
  Option.bind (parts_of_label net st label) (fun parts ->
      match fire net st z parts with
      | None -> None
      | Some (st', z') ->
          delay_close_exact net st' z';
          if Dbm.is_empty z' then None else Some (st', z'))
