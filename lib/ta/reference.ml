(* Naive reference semantics for certificate checking.

   This module deliberately re-implements the symbolic successor
   relation from the network definition alone: plain DBM operations, no
   extrapolation, no active-clock reduction, no interning, no slicing,
   no sharding.  {!Semantics} is the optimized twin the explorer runs;
   an independent certificate checker must not trust it, so nothing
   here calls into it beyond sharing its plain [state]/[label] types.

   The [mask] makes the reference semantics aware of what a
   query-directed slice removed without knowing how the slicer decided:
   frozen components never move (their locations and variables are
   constants of the checked invariant), removed clocks are
   unconstrained in every stored zone.  All mask handling is
   direction-checked: the masked relation always has at least the
   transitions and delays of the real projected system, so every
   obligation discharged against it also holds for the real runs (the
   certificate checker validates the isolation conditions that make the
   converse harmless). *)

module Dbm = Ita_dbm.Dbm

type state = Semantics.state = { locs : int array; env : int array }
type label = Semantics.label

type mask = {
  frozen_comps : bool array;
      (** [true]: the component is outside the certified cone and never
          moves; its location is pinned and its edges are not
          enumerated. *)
  removed_clocks : bool array;
      (** [true]: the clock is unconstrained in every stored zone;
          the certified cone's invariants and the goal never test it. *)
  frozen_vars : bool array;
      (** [true]: the variable is outside the cone and held at its
          initial value. *)
}

let no_mask (net : Network.t) =
  {
    frozen_comps = Array.make (Array.length net.Network.automata) false;
    removed_clocks = Array.make (Array.length net.Network.clock_names) false;
    frozen_vars = Array.make (Array.length net.Network.var_names) false;
  }

let loc_kind (net : Network.t) (st : state) i =
  (Automaton.location net.Network.automata.(i) st.locs.(i)).Automaton.kind

(* Invariants of the unmasked components only: a frozen component sits
   at a fixed location the real runs may have left, so its invariant
   must not constrain the certified zones (the checker separately
   ensures frozen components cannot retime the cone). *)
let apply_invariants (net : Network.t) mask (st : state) z =
  Array.iteri
    (fun i l ->
      if not mask.frozen_comps.(i) then begin
        let inv =
          (Automaton.location net.Network.automata.(i) l).Automaton.invariant
        in
        if inv.Guard.clocks <> [] then Guard.apply st.env inv z
      end)
    st.locs

let inv_zone (net : Network.t) mask (st : state) =
  let z = Dbm.universal (Network.n_clocks net) in
  apply_invariants net mask st z;
  z

(* Delay permission over the unmasked components.  This is an
   over-approximation of the real system's [delay_allowed]: a frozen
   component can only add blockers (committed/urgent locations, urgent
   synchronizations), never remove them, so whenever the real projected
   system may delay the reference semantics checks the delay-coverage
   obligation too. *)
let delay_allowed (net : Network.t) mask (st : state) =
  let n = Array.length net.Network.automata in
  let blocked_kind =
    let rec go i =
      i < n
      && ((not mask.frozen_comps.(i))
          && (match loc_kind net st i with
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
    (not mask.frozen_comps.(i))
    &&
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

(* Exact time elapse: up then the unmasked invariants, nothing else.
   The stored zones may be abstracted; the successors the checker
   covers with them never are. *)
let delay (net : Network.t) mask (st : state) z =
  let z = Dbm.copy z in
  Dbm.up z;
  apply_invariants net mask st z;
  z

type joint = { label : label; parts : (int * int) list }

(* All joint transitions of the unmasked components whose data guards
   hold in [st], under the committed-location restriction over the
   unmasked components.  Structure mirrors the optimized enumeration so
   differential tests keep both honest, but the code is independent. *)
let joint_transitions (net : Network.t) mask (st : state) =
  let n = Array.length net.Network.automata in
  let unmasked i = not mask.frozen_comps.(i) in
  let committed =
    let rec go i =
      i < n && ((unmasked i && loc_kind net st i = Automaton.Committed) || go (i + 1))
    in
    go 0
  in
  let committed_ok parts =
    (not committed)
    || List.exists
         (fun (i, ei) ->
           let e = Automaton.edge net.Network.automata.(i) ei in
           (Automaton.location net.Network.automata.(i) e.Automaton.src)
             .Automaton.kind = Automaton.Committed)
         parts
  in
  let data_enabled (i, ei) =
    Guard.data_holds st.env
      (Automaton.edge net.Network.automata.(i) ei).Automaton.guard
  in
  let acc = ref [] in
  let emit label parts =
    if committed_ok parts then acc := { label; parts } :: !acc
  in
  for i = 0 to n - 1 do
    if unmasked i then begin
      let a = net.Network.automata.(i) in
      List.iter
        (fun ei ->
          let e = Automaton.edge a ei in
          if e.Automaton.sync = Automaton.NoSync && data_enabled (i, ei) then
            emit (Semantics.Internal { comp = i; edge = ei }) [ (i, ei) ])
        (Automaton.out_edges a st.locs.(i))
    end
  done;
  let edges_on i pred =
    if not (unmasked i) then []
    else
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
   unmasked invariants.  No delay, no abstraction.  [None] when the
   step is disabled (empty zone, or an update leaves a variable
   range — a transition the runtime semantics rejects). *)
let fire (net : Network.t) mask (st : state) z parts =
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
        apply_invariants net mask st' z;
        if Dbm.is_empty z then None else Some (st', z)
    | exception Update.Out_of_range _ -> None

(* The exact initial configuration: all components (frozen ones
   included — their pinned location is the initial one) at their
   initial locations, variables at their declared initial values, all
   clocks zero, narrowed by the unmasked invariants.  Delay is not
   taken here: the delay-coverage obligation extends coverage from the
   initial point onward. *)
let initial (net : Network.t) mask =
  let locs =
    Array.map (fun (a : Automaton.t) -> a.Automaton.initial) net.Network.automata
  in
  let env = Array.copy net.Network.var_init in
  let st = { locs; env } in
  let z = Dbm.zero (Network.n_clocks net) in
  apply_invariants net mask st z;
  (st, z)

(* ------------------------------------------------------------------ *)
(* Exact witness replay over the full network                          *)
(* ------------------------------------------------------------------ *)

(* Replaying a claimed counterexample path needs the real (unmasked,
   maximal-broadcast, committed-restricted) transition relation with
   exact delay closure.  Configurations form a set because broadcast
   labels from a sliced run list only the in-cone receivers: every
   out-of-cone component able to receive must also receive, and each
   choice of its receiving edge is a distinct real continuation. *)

let delay_close_exact net mask st z =
  if delay_allowed net mask st then begin
    Dbm.up z;
    apply_invariants net mask st z
  end

let initial_exact (net : Network.t) =
  let mask = no_mask net in
  let st, z = initial net mask in
  delay_close_exact net mask st z;
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

let enabled_recvs (net : Network.t) (st : state) ch j =
  let a = net.Network.automata.(j) in
  List.filter
    (fun ei ->
      let e = Automaton.edge a ei in
      e.Automaton.sync = Automaton.Recv ch
      && Guard.data_holds st.env e.Automaton.guard)
    (Automaton.out_edges a st.locs.(j))

(* All real part-lists matching [label] at [st]: checks participant
   validity, the committed restriction, and broadcast maximality
   (completing the listed receivers with every component that can
   receive, in all edge-choice combinations).  Empty when the label is
   not a real transition at [st]. *)
let real_parts (net : Network.t) (st : state) (label : label) =
  let n = Array.length net.Network.automata in
  let committed =
    let rec go i =
      i < n && (loc_kind net st i = Automaton.Committed || go (i + 1))
    in
    go 0
  in
  let committed_ok parts =
    (not committed)
    || List.exists
         (fun (i, ei) ->
           let e = Automaton.edge net.Network.automata.(i) ei in
           (Automaton.location net.Network.automata.(i) e.Automaton.src)
             .Automaton.kind = Automaton.Committed)
         parts
  in
  let candidates =
    match label with
    | Semantics.Internal { comp; edge } ->
        if participant_ok net st (comp, edge) Automaton.NoSync then
          [ [ (comp, edge) ] ]
        else []
    | Semantics.Sync { chan; sender = (si, se); receivers } -> (
        if chan < 0 || chan >= Array.length net.Network.channels then []
        else
          let ch = net.Network.channels.(chan) in
          if not (participant_ok net st (si, se) (Automaton.Send chan)) then []
          else
            match ch.Channel.kind with
            | Channel.Binary -> (
                match receivers with
                | [ (ri, re) ] when ri <> si ->
                    if participant_ok net st (ri, re) (Automaton.Recv chan) then
                      [ [ (si, se); (ri, re) ] ]
                    else []
                | _ -> [])
            | Channel.Broadcast ->
                let listed = List.map fst receivers in
                if
                  List.exists (fun ri -> ri = si) listed
                  || List.length listed
                     <> List.length (List.sort_uniq compare listed)
                  || List.exists
                       (fun (ri, re) ->
                         not
                           (participant_ok net st (ri, re) (Automaton.Recv chan)))
                       receivers
                then []
                else begin
                  (* maximality: every other component with an enabled
                     receiving edge must take part; the listed receivers
                     fix their edge, the rest branch over theirs *)
                  let choices = ref [ List.rev receivers ] in
                  for j = n - 1 downto 0 do
                    if j <> si && not (List.mem j listed) then
                      match enabled_recvs net st chan j with
                      | [] -> ()
                      | recvs ->
                          choices :=
                            List.concat_map
                              (fun rest ->
                                List.map (fun re -> (j, re) :: rest) recvs)
                              !choices
                  done;
                  List.map (fun rs -> (si, se) :: rs) !choices
                end)
  in
  List.filter committed_ok candidates

(* One labelled step of the candidate set, with exact delay closure. *)
let step_exact (net : Network.t) configs (label : label) =
  let mask = no_mask net in
  List.concat_map
    (fun (st, z) ->
      List.filter_map
        (fun parts ->
          match fire net mask st z parts with
          | None -> None
          | Some (st', z') ->
              delay_close_exact net mask st' z';
              if Dbm.is_empty z' then None else Some (st', z'))
        (real_parts net st label))
    configs
