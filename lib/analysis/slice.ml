open Ita_ta
module D = Diagnostic

type goal = {
  g_comps : int list;
  g_clocks : Guard.clock list;
  g_vars : Expr.var list;
}

type t = {
  net : Network.t;
  removed_comps : int list;
  removed_clocks : int list;
  removed_vars : int list;
  dead_edges : (int * int) list;
}

let existsi p arr =
  let n = Array.length arr in
  let rec go i = i < n && (p i arr.(i) || go (i + 1)) in
  go 0

(* the indices in [lo, hi) that [p] selects, ascending *)
let indices lo hi p = List.filter p (List.init (max 0 (hi - lo)) (( + ) lo))

let cone ~fa (net : Network.t) (goal : goal) =
  let nc = Array.length net.Network.automata in
  let ncl = Array.length net.Network.clock_names in
  let nv = Array.length net.Network.var_names in
  let auto ci = net.Network.automata.(ci) in
  let live ci ei = Flow.edge_status fa ci ei = Flow.Live in
  let reachable ci li = Flow.reachable fa ci li in
  let keep = Array.make nc false in
  let rel_clock = Array.make ncl false in
  let read_var = Array.make nv false in
  rel_clock.(0) <- true;
  List.iter
    (fun ci ->
      if ci < 0 || ci >= nc then invalid_arg "Slice.cone: component index";
      keep.(ci) <- true)
    goal.g_comps;
  List.iter
    (fun x ->
      if x < 0 || x >= ncl then invalid_arg "Slice.cone: clock index";
      rel_clock.(x) <- true)
    goal.g_clocks;
  Array.iteri (fun x p -> if p then rel_clock.(x) <- true) net.Network.pinned;
  List.iter
    (fun v ->
      if v < 0 || v >= nv then invalid_arg "Slice.cone: variable index";
      read_var.(v) <- true)
    goal.g_vars;
  (* Components that can constrain delay or firing anywhere the flow
     analysis reaches are unconditionally part of every cone: a
     non-Normal location kind, any non-trivial invariant, or a live
     edge on an urgent channel. *)
  for ci = 0 to nc - 1 do
    let a = auto ci in
    let constrains_loc li (l : Automaton.location) =
      reachable ci li
      && (l.Automaton.kind <> Automaton.Normal
         || not (Guard.is_trivial l.Automaton.invariant))
    in
    let urgent_edge ei (e : Automaton.edge) =
      live ci ei
      &&
      match e.Automaton.sync with
      | Automaton.NoSync -> false
      | Automaton.Send c | Automaton.Recv c ->
          net.Network.channels.(c).Channel.urgent
    in
    if
      existsi constrains_loc a.Automaton.locations
      || existsi urgent_edge a.Automaton.edges
    then keep.(ci) <- true
  done;
  let has_live_sync cj c role =
    existsi
      (fun ei (e : Automaton.edge) ->
        live cj ei
        &&
        match (e.Automaton.sync, role) with
        | Automaton.Send c', `Send -> c' = c
        | Automaton.Recv c', `Recv -> c' = c
        | _ -> false)
      (auto cj).Automaton.edges
  in
  let kept_partner_has c role ci =
    let rec any cj =
      cj < nc
      && ((cj <> ci && keep.(cj) && has_live_sync cj c role) || any (cj + 1))
    in
    any 0
  in
  (* Backward-cone fixpoint.  Forward direction: everything the cone's
     components read (on live edges and flow-reachable invariants)
     becomes relevant.  Backward direction: components writing a
     relevant variable, resetting a relevant clock, or standing as a
     synchronization peer of a live edge in the cone are pulled in. *)
  let changed = ref true in
  while !changed do
    changed := false;
    let mark_clock x =
      if not rel_clock.(x) then begin
        rel_clock.(x) <- true;
        changed := true
      end
    in
    let mark_var v =
      if not read_var.(v) then begin
        read_var.(v) <- true;
        changed := true
      end
    in
    let mark_guard (g : Guard.t) =
      List.iter
        (fun (at : Guard.atom) ->
          mark_clock at.Guard.clock;
          List.iter mark_var (Expr.ivars at.Guard.bound))
        g.Guard.clocks;
      List.iter mark_var (Expr.bvars g.Guard.data)
    in
    for ci = 0 to nc - 1 do
      if keep.(ci) then begin
        let a = auto ci in
        Array.iteri
          (fun li (l : Automaton.location) ->
            if reachable ci li then mark_guard l.Automaton.invariant)
          a.Automaton.locations;
        Array.iteri
          (fun ei (e : Automaton.edge) ->
            if live ci ei then begin
              mark_guard e.Automaton.guard;
              List.iter
                (function
                  | Update.Set_var (_, rhs) ->
                      List.iter mark_var (Expr.ivars rhs)
                  | Update.Reset_clock (x, rhs) ->
                      if rel_clock.(x) then List.iter mark_var (Expr.ivars rhs))
                e.Automaton.update
            end)
          a.Automaton.edges
      end
    done;
    for ci = 0 to nc - 1 do
      if not keep.(ci) then begin
        let pulls ei (e : Automaton.edge) =
          live ci ei
          && (List.exists
                (function
                  | Update.Set_var (v, _) -> read_var.(v)
                  | Update.Reset_clock (x, _) -> rel_clock.(x))
                e.Automaton.update
             ||
             match e.Automaton.sync with
             | Automaton.NoSync -> false
             | Automaton.Send c ->
                 (* any sender a receiver in the cone may wait for *)
                 kept_partner_has c `Recv ci
             | Automaton.Recv c -> (
                 match net.Network.channels.(c).Channel.kind with
                 | Channel.Broadcast -> false
                 (* a broadcast receiver never blocks its sender *)
                 | Channel.Binary -> kept_partner_has c `Send ci))
        in
        if existsi pulls (auto ci).Automaton.edges then begin
          keep.(ci) <- true;
          changed := true
        end
      end
    done
  done;
  (* the cone's variables: everything it reads plus everything its
     components write on live edges *)
  let cone_var = Array.copy read_var in
  for ci = 0 to nc - 1 do
    if keep.(ci) then
      Array.iteri
        (fun ei (e : Automaton.edge) ->
          if live ci ei then
            List.iter
              (function
                | Update.Set_var (v, _) -> cone_var.(v) <- true
                | Update.Reset_clock _ -> ())
              e.Automaton.update)
        (auto ci).Automaton.edges
  done;
  {
    net;
    removed_comps = indices 0 nc (fun ci -> not keep.(ci));
    removed_clocks = indices 1 ncl (fun x -> not rel_clock.(x));
    removed_vars = indices 0 nv (fun v -> not cone_var.(v));
    dead_edges =
      List.concat_map
        (fun ci ->
          if not keep.(ci) then []
          else
            indices 0 (Array.length (auto ci).Automaton.edges) (fun ei ->
                not (live ci ei))
            |> List.map (fun ei -> (ci, ei)))
        (List.init nc Fun.id);
  }

let pp_report ?resolve ppf t =
  let net = t.net in
  let pos site =
    match resolve with
    | Some f -> ( match f site with Some p -> p ^ ": " | None -> "")
    | None -> ""
  in
  List.iter
    (fun ci ->
      Format.fprintf ppf
        "%scomponent %s is outside the query's cone: it cannot influence \
         the query@."
        (pos (D.Automaton_site ci))
        net.Network.automata.(ci).Automaton.name)
    t.removed_comps;
  List.iter
    (fun x ->
      Format.fprintf ppf
        "%sclock %s is outside the query's cone: the cone never tests it@."
        (pos (D.Clock_site x))
        net.Network.clock_names.(x))
    t.removed_clocks;
  List.iter
    (fun v ->
      Format.fprintf ppf
        "%svariable %s is outside the query's cone: the cone never reads it@."
        (pos (D.Var_site v))
        net.Network.var_names.(v))
    t.removed_vars;
  List.iter
    (fun (ci, ei) ->
      Format.fprintf ppf "%sdead edge %s #%d: it can never fire@."
        (pos (D.Edge_site { comp = ci; edge = ei }))
        net.Network.automata.(ci).Automaton.name ei)
    t.dead_edges;
  let in_cone total outside = total - List.length outside in
  let nc = Array.length net.Network.automata and ncl = Network.n_clocks net in
  let nv = Array.length net.Network.var_names in
  Format.fprintf ppf
    "the query's cone: %d/%d components, %d/%d clocks, %d/%d variables@."
    (in_cone nc t.removed_comps) nc
    (in_cone ncl t.removed_clocks) ncl
    (in_cone nv t.removed_vars) nv
