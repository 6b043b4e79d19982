open Ita_ta
module D = Diagnostic

type mode = Off | Coi | CoiMerge

type goal = {
  g_comps : int list;
  g_clocks : Guard.clock list;
  g_vars : Expr.var list;
}

type t = {
  original : Network.t;
  net : Network.t;
  identity : bool;
  comp_map : int option array;
  comp_unmap : int array;
  edge_unmaps : int array array;
  clock_map : int option array;
  var_map : int option array;
  removed_comps : int list;
  removed_clocks : int list;
  removed_vars : int list;
  merged : (Guard.clock * Guard.clock) list;
  dropped_edges : (int * int) list;
}

let existsi p arr =
  let n = Array.length arr in
  let rec go i = i < n && (p i arr.(i) || go (i + 1)) in
  go 0

(* A reset expression whose evaluation can neither raise (division) nor
   go negative (the runtime asserts non-negative resets); only such
   resets may be dropped together with their clock. *)
let rec div_free = function
  | Expr.Int _ | Expr.Var _ -> true
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) ->
      div_free a && div_free b
  | Expr.Div _ -> false
  | Expr.Neg a -> div_free a
  | Expr.Ite (c, a, b) -> bdiv_free c && div_free a && div_free b

and bdiv_free = function
  | Expr.True | Expr.False -> true
  | Expr.Cmp (_, a, b) -> div_free a && div_free b
  | Expr.And (a, b) | Expr.Or (a, b) -> bdiv_free a && bdiv_free b
  | Expr.Not a -> bdiv_free a

let safe_reset ranges rhs = div_free rhs && fst (Expr.interval ranges rhs) >= 0

(* ---- index rewriting over a (clock_map, var_map) pair ---- *)

let rewrite_clock clock_map x =
  match clock_map.(x) with
  | Some x' -> x'
  | None -> invalid_arg "Slice: guard mentions a removed clock"

let rewrite_var var_map v =
  match var_map.(v) with
  | Some v' -> v'
  | None -> invalid_arg "Slice: expression mentions a removed variable"

let rec rewrite_iexp var_map = function
  | Expr.Int _ as e -> e
  | Expr.Var v -> Expr.Var (rewrite_var var_map v)
  | Expr.Add (a, b) -> Expr.Add (rewrite_iexp var_map a, rewrite_iexp var_map b)
  | Expr.Sub (a, b) -> Expr.Sub (rewrite_iexp var_map a, rewrite_iexp var_map b)
  | Expr.Mul (a, b) -> Expr.Mul (rewrite_iexp var_map a, rewrite_iexp var_map b)
  | Expr.Div (a, b) -> Expr.Div (rewrite_iexp var_map a, rewrite_iexp var_map b)
  | Expr.Neg a -> Expr.Neg (rewrite_iexp var_map a)
  | Expr.Ite (c, a, b) ->
      Expr.Ite
        (rewrite_bexp var_map c, rewrite_iexp var_map a, rewrite_iexp var_map b)

and rewrite_bexp var_map = function
  | (Expr.True | Expr.False) as b -> b
  | Expr.Cmp (op, a, b) ->
      Expr.Cmp (op, rewrite_iexp var_map a, rewrite_iexp var_map b)
  | Expr.And (a, b) -> Expr.And (rewrite_bexp var_map a, rewrite_bexp var_map b)
  | Expr.Or (a, b) -> Expr.Or (rewrite_bexp var_map a, rewrite_bexp var_map b)
  | Expr.Not a -> Expr.Not (rewrite_bexp var_map a)

let rewrite_guard clock_map var_map (g : Guard.t) =
  {
    Guard.clocks =
      List.map
        (fun (at : Guard.atom) ->
          {
            at with
            Guard.clock = rewrite_clock clock_map at.Guard.clock;
            bound = rewrite_iexp var_map at.Guard.bound;
          })
        g.Guard.clocks;
    data = rewrite_bexp var_map g.Guard.data;
  }

(* ---- identity slice (Off mode, or nothing to remove) ---- *)

let identity_slice (net : Network.t) =
  let nc = Array.length net.Network.automata in
  let ncl = Array.length net.Network.clock_names in
  let nv = Array.length net.Network.var_names in
  {
    original = net;
    net;
    identity = true;
    comp_map = Array.init nc (fun i -> Some i);
    comp_unmap = Array.init nc Fun.id;
    edge_unmaps =
      Array.map
        (fun (a : Automaton.t) ->
          Array.init (Array.length a.Automaton.edges) Fun.id)
        net.Network.automata;
    clock_map = Array.init ncl (fun i -> Some i);
    var_map = Array.init nv (fun i -> Some i);
    removed_comps = [];
    removed_clocks = [];
    removed_vars = [];
    merged = [];
    dropped_edges = [];
  }

(* Quasi-equal clock detection: group the candidate clocks by their
   reset signature over the selected edges — the Int constant reset
   there, or nothing.  Clocks sharing a signature are equal in every
   valuation those edges can reach (all start at 0), so each class
   collapses onto its smallest member. *)
let quasi_equal (net : Network.t) ~candidate ~edges =
  let ncl = Array.length net.Network.clock_names in
  let candidate = Array.init ncl (fun x -> x > 0 && candidate x) in
  let signature = Array.make ncl [] in
  Array.iteri
    (fun ci (a : Automaton.t) ->
      Array.iteri
        (fun ei (e : Automaton.edge) ->
          if edges ci ei then begin
            let consts = Hashtbl.create 4 in
            List.iter
              (function
                | Update.Reset_clock (x, Expr.Int c) when c >= 0 ->
                    Hashtbl.replace consts x c
                | Update.Reset_clock (x, _) -> candidate.(x) <- false
                | Update.Set_var _ -> ())
              e.Automaton.update;
            for x = 1 to ncl - 1 do
              if candidate.(x) then
                signature.(x) <- Hashtbl.find_opt consts x :: signature.(x)
            done
          end)
        a.Automaton.edges)
    net.Network.automata;
  let merged_into = Array.make ncl (-1) in
  let groups = Hashtbl.create 8 in
  for x = 1 to ncl - 1 do
    if candidate.(x) then
      match Hashtbl.find_opt groups signature.(x) with
      | None -> Hashtbl.add groups signature.(x) x
      | Some r -> merged_into.(x) <- r
  done;
  merged_into

let make ?(mode = CoiMerge) ~fa (net : Network.t) (goal : goal) =
  if mode = Off then identity_slice net
  else begin
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
        if ci < 0 || ci >= nc then invalid_arg "Slice.make: component index";
        keep.(ci) <- true)
      goal.g_comps;
    List.iter
      (fun x ->
        if x < 0 || x >= ncl then invalid_arg "Slice.make: clock index";
        rel_clock.(x) <- true)
      goal.g_clocks;
    Array.iteri (fun x p -> if p then rel_clock.(x) <- true) net.Network.pinned;
    List.iter
      (fun v ->
        if v < 0 || v >= nv then invalid_arg "Slice.make: variable index";
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
    (* Backward-cone fixpoint.  Forward direction: everything the kept
       components read (on live edges and flow-reachable invariants)
       becomes relevant.  Backward direction: components writing a
       relevant variable, resetting a relevant clock, or standing as a
       synchronization peer of a kept live edge are pulled in. *)
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
                        (* a reset whose value could raise or go
                           negative cannot be dropped: keep the clock *)
                        if not (safe_reset net.Network.var_ranges rhs) then
                          mark_clock x;
                        if rel_clock.(x) then
                          List.iter mark_var (Expr.ivars rhs))
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
                   (* any sender a kept receiver may wait for *)
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
    (* Variables of the sliced network: everything the cone reads plus
       everything the kept components write — kept updates are carried
       over verbatim, so their targets must stay addressable. *)
    let kept_var = Array.copy read_var in
    for ci = 0 to nc - 1 do
      if keep.(ci) then
        Array.iteri
          (fun ei (e : Automaton.edge) ->
            if live ci ei then
              List.iter
                (function
                  | Update.Set_var (v, _) -> kept_var.(v) <- true
                  | Update.Reset_clock _ -> ())
                e.Automaton.update)
          (auto ci).Automaton.edges
    done;
    (* CoiMerge: merge the kept, unpinned quasi-equal clocks, with
       signatures over every kept live edge *)
    let merged_into =
      if mode = CoiMerge then
        quasi_equal net
          ~candidate:(fun x -> rel_clock.(x) && not net.Network.pinned.(x))
          ~edges:(fun ci ei -> keep.(ci) && live ci ei)
      else Array.make ncl (-1)
    in
    let dropped_edges = ref [] in
    for ci = nc - 1 downto 0 do
      if keep.(ci) then
        for ei = Array.length (auto ci).Automaton.edges - 1 downto 0 do
          if not (live ci ei) then dropped_edges := (ci, ei) :: !dropped_edges
        done
    done;
    let dropped_edges = !dropped_edges in
    let untouched_invariants =
      let ok ci =
        existsi
          (fun li (l : Automaton.location) ->
            (not (reachable ci li))
            && not (Guard.is_trivial l.Automaton.invariant))
          (auto ci).Automaton.locations
        |> not
      in
      let rec all ci = ci >= nc || ((not keep.(ci)) || ok ci) && all (ci + 1) in
      all 0
    in
    let identity =
      Array.for_all Fun.id keep
      && Array.for_all Fun.id rel_clock
      && Array.for_all Fun.id kept_var
      && Array.for_all (fun r -> r < 0) merged_into
      && dropped_edges = [] && untouched_invariants
    in
    if identity then identity_slice net
    else begin
      (* ---- rebuild the reduced network ---- *)
      let b = Network.Builder.create () in
      let clock_map = Array.make ncl None in
      clock_map.(0) <- Some 0;
      for x = 1 to ncl - 1 do
        if rel_clock.(x) && merged_into.(x) < 0 then
          clock_map.(x) <-
            Some (Network.Builder.clock b net.Network.clock_names.(x))
      done;
      for x = 1 to ncl - 1 do
        if merged_into.(x) >= 0 then clock_map.(x) <- clock_map.(merged_into.(x))
      done;
      let var_map = Array.make nv None in
      for v = 0 to nv - 1 do
        if kept_var.(v) then begin
          let lo, hi = net.Network.var_ranges.(v) in
          var_map.(v) <-
            Some
              (Network.Builder.int_var b net.Network.var_names.(v) ~lo ~hi
                 ~init:net.Network.var_init.(v))
        end
      done;
      Array.iter
        (fun (ch : Channel.t) ->
          ignore
            (Network.Builder.channel b ch.Channel.name ch.Channel.kind
               ~urgent:ch.Channel.urgent))
        net.Network.channels;
      let mguard = rewrite_guard clock_map var_map in
      let comp_map = Array.make nc None in
      let edge_maps = Array.make nc [||] in
      let kept_count = ref 0 in
      for ci = 0 to nc - 1 do
        if keep.(ci) then begin
          let a = auto ci in
          let locations =
            Array.to_list
              (Array.mapi
                 (fun li (l : Automaton.location) ->
                   if reachable ci li then
                     { l with Automaton.invariant = mguard l.Automaton.invariant }
                   else { l with Automaton.invariant = Guard.tt })
                 a.Automaton.locations)
          in
          let emap = Array.make (Array.length a.Automaton.edges) None in
          let edges = ref [] and nedges = ref 0 in
          Array.iteri
            (fun ei (e : Automaton.edge) ->
              if live ci ei then begin
                let update =
                  List.filter_map
                    (function
                      | Update.Reset_clock (x, rhs) -> (
                          match clock_map.(x) with
                          | None -> None (* removed: reset value is safe *)
                          | Some x' ->
                              if merged_into.(x) >= 0 then
                                (* the representative's reset on this
                                   same edge carries the class *)
                                None
                              else
                                Some
                                  (Update.Reset_clock
                                     (x', rewrite_iexp var_map rhs)))
                      | Update.Set_var (v, rhs) ->
                          Some
                            (Update.Set_var
                               ( rewrite_var var_map v,
                                 rewrite_iexp var_map rhs )))
                    e.Automaton.update
                in
                emap.(ei) <- Some !nedges;
                incr nedges;
                edges :=
                  { e with Automaton.guard = mguard e.Automaton.guard; update }
                  :: !edges
              end)
            a.Automaton.edges;
          Network.Builder.add_automaton b
            (Automaton.make ~name:a.Automaton.name ~locations
               ~edges:(List.rev !edges) ~initial:a.Automaton.initial);
          comp_map.(ci) <- Some !kept_count;
          incr kept_count;
          edge_maps.(ci) <- emap
        end
      done;
      let net' = Network.Builder.build ~validate:false b in
      (* clocks the caller had pinned stay pinned in the sliced net *)
      let net' =
        let acc = ref net' in
        for x = 1 to ncl - 1 do
          if net.Network.pinned.(x) then
            match clock_map.(x) with
            | Some x' when x' > 0 ->
                acc := Network.bump_clock_bound !acc x' 0
            | _ -> ()
        done;
        !acc
      in
      let comp_unmap = Array.make !kept_count 0 in
      Array.iteri
        (fun ci m -> match m with Some ci' -> comp_unmap.(ci') <- ci | None -> ())
        comp_map;
      let edge_unmaps =
        Array.map
          (fun ci' ->
            let emap = edge_maps.(comp_unmap.(ci')) in
            let n =
              Array.fold_left
                (fun acc m -> match m with Some _ -> acc + 1 | None -> acc)
                0 emap
            in
            let inv = Array.make n 0 in
            Array.iteri
              (fun ei m -> match m with Some ei' -> inv.(ei') <- ei | None -> ())
              emap;
            inv)
          (Array.init !kept_count Fun.id)
      in
      let removed_comps = ref [] and removed_clocks = ref [] in
      let removed_vars = ref [] and merged = ref [] in
      for ci = nc - 1 downto 0 do
        if not keep.(ci) then removed_comps := ci :: !removed_comps
      done;
      for x = ncl - 1 downto 1 do
        if not rel_clock.(x) then removed_clocks := x :: !removed_clocks;
        if merged_into.(x) >= 0 then merged := (x, merged_into.(x)) :: !merged
      done;
      for v = nv - 1 downto 0 do
        if not kept_var.(v) then removed_vars := v :: !removed_vars
      done;
      {
        original = net;
        net = net';
        identity = false;
        comp_map;
        comp_unmap;
        edge_unmaps;
        clock_map;
        var_map;
        removed_comps = !removed_comps;
        removed_clocks = !removed_clocks;
        removed_vars = !removed_vars;
        merged = !merged;
        dropped_edges;
      }
    end
  end

(* ---- index translation ---- *)

let map_comp t ci = if t.identity then Some ci else t.comp_map.(ci)
let map_clock t x = if t.identity then Some x else t.clock_map.(x)
let map_var t v = if t.identity then Some v else t.var_map.(v)

let map_guard t g =
  if t.identity then g else rewrite_guard t.clock_map t.var_map g

let unmap_state t (st : Semantics.state) =
  if t.identity then st
  else
    {
      Semantics.locs =
        Array.mapi
          (fun ci m ->
            match m with
            | Some ci' -> st.Semantics.locs.(ci')
            | None -> t.original.Network.automata.(ci).Automaton.initial)
          t.comp_map;
      env =
        Array.mapi
          (fun v m ->
            match m with
            | Some v' -> st.Semantics.env.(v')
            | None -> t.original.Network.var_init.(v))
          t.var_map;
    }

let unmap_label t (l : Semantics.label) =
  if t.identity then l
  else
    let comp ci' = t.comp_unmap.(ci') in
    let edge ci' ei' = t.edge_unmaps.(ci').(ei') in
    match l with
    | Semantics.Internal { comp = c; edge = e } ->
        Semantics.Internal { comp = comp c; edge = edge c e }
    | Semantics.Sync { chan; sender = sc, se; receivers } ->
        Semantics.Sync
          {
            chan;
            sender = (comp sc, edge sc se);
            receivers = List.map (fun (rc, re) -> (comp rc, edge rc re)) receivers;
          }

let unmap_zone t (z : Semantics.Dbm.t) =
  if t.identity then z
  else begin
    let n = Array.length t.original.Network.clock_names - 1 in
    let z' = Semantics.Dbm.universal n in
    for i = 0 to n do
      for j = 0 to n do
        if i <> j then
          match (t.clock_map.(i), t.clock_map.(j)) with
          | Some i', Some j' ->
              Semantics.Dbm.constrain z' i j (Semantics.Dbm.get z i' j')
          | _ -> ()
      done
    done;
    z'
  end

(* ---- report ---- *)

let pp_report ?resolve ppf t =
  let orig = t.original in
  let pos site =
    match resolve with
    | Some f -> ( match f site with Some p -> p ^ ": " | None -> "")
    | None -> ""
  in
  if t.identity then
    Format.fprintf ppf
      "nothing to remove: every component, clock and variable is in the \
       query cone@."
  else begin
    List.iter
      (fun ci ->
        Format.fprintf ppf
          "%sremove component %s: it cannot influence the query cone@."
          (pos (D.Automaton_site ci))
          orig.Network.automata.(ci).Automaton.name)
      t.removed_comps;
    List.iter
      (fun x ->
        Format.fprintf ppf
          "%sremove clock %s: never tested by the cone (DBM dimension -1)@."
          (pos (D.Clock_site x))
          orig.Network.clock_names.(x))
      t.removed_clocks;
    List.iter
      (fun v ->
        Format.fprintf ppf
          "%sremove variable %s: never read by the cone (packed key shrinks)@."
          (pos (D.Var_site v))
          orig.Network.var_names.(v))
      t.removed_vars;
    List.iter
      (fun (m, r) ->
        Format.fprintf ppf
          "%smerge clock %s into %s: quasi-equal (always reset together, \
           to the same constants)@."
          (pos (D.Clock_site m))
          orig.Network.clock_names.(m) orig.Network.clock_names.(r))
      t.merged;
    List.iter
      (fun (ci, ei) ->
        Format.fprintf ppf "%sdrop dead edge %s #%d@."
          (pos (D.Edge_site { comp = ci; edge = ei }))
          orig.Network.automata.(ci).Automaton.name ei)
      t.dropped_edges;
    Format.fprintf ppf
      "kept %d/%d components, %d/%d clocks, %d/%d variables@."
      (Array.length t.net.Network.automata)
      (Array.length orig.Network.automata)
      (Network.n_clocks t.net) (Network.n_clocks orig)
      (Array.length t.net.Network.var_names)
      (Array.length orig.Network.var_names)
  end
