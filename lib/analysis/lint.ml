open Ita_ta
module D = Diagnostic

let mk ?fix pass severity site message : D.t =
  { D.pass; severity; site; message; fix }

let sprintf = Printf.sprintf

(* ---- shared syntactic accessors ---- *)

let atom_clocks (g : Guard.t) =
  List.map (fun (a : Guard.atom) -> a.Guard.clock) g.Guard.clocks

let reset_clocks (u : Update.t) =
  List.filter_map
    (function
      | Update.Reset_clock (x, _) -> Some x
      | Update.Set_var _ -> None)
    u

(* Every guard in the network, invariants included, with its site. *)
let iter_guards (net : Network.t) f =
  Array.iteri
    (fun ci (a : Automaton.t) ->
      Array.iteri
        (fun li (l : Automaton.location) ->
          f (D.Location_site { comp = ci; loc = li }) l.Automaton.invariant)
        a.Automaton.locations;
      Array.iteri
        (fun ei (e : Automaton.edge) ->
          f (D.Edge_site { comp = ci; edge = ei }) e.Automaton.guard)
        a.Automaton.edges)
    net.Network.automata

let iter_edges (net : Network.t) f =
  Array.iteri
    (fun ci (a : Automaton.t) ->
      Array.iteri (fun ei e -> f ci ei a e) a.Automaton.edges)
    net.Network.automata

(* ---- unused-clock / never-reset-clock ---- *)

let clock_passes ~observed (net : Network.t) =
  let n = Array.length net.Network.clock_names in
  let tested = Array.make n false and reset = Array.make n false in
  iter_guards net (fun _ g ->
      List.iter (fun x -> tested.(x) <- true) (atom_clocks g));
  iter_edges net (fun _ _ _ (e : Automaton.edge) ->
      List.iter (fun x -> reset.(x) <- true) (reset_clocks e.Automaton.update));
  let out = ref [] in
  for x = n - 1 downto 1 do
    if not (observed.(x) || net.Network.pinned.(x)) then
      if not tested.(x) then
        out :=
          mk ~fix:"remove the clock declaration" D.Unused_clock D.Warning
            (D.Clock_site x)
            (sprintf "clock %s is never tested by any guard or invariant%s"
               net.Network.clock_names.(x)
               (if reset.(x) then " (it is only reset)" else ""))
          :: !out
      else if not reset.(x) then
        out :=
          mk D.Never_reset_clock D.Info (D.Clock_site x)
            (sprintf
               "clock %s is tested but never reset: it measures absolute time"
               net.Network.clock_names.(x))
          :: !out
  done;
  !out

(* ---- dead-var ---- *)

let var_pass ~observed (net : Network.t) =
  let n = Array.length net.Network.var_names in
  let read = Array.make n false and written = Array.make n false in
  let guard_reads (g : Guard.t) =
    Expr.bvars g.Guard.data
    @ List.concat_map
        (fun (a : Guard.atom) -> Expr.ivars a.Guard.bound)
        g.Guard.clocks
  in
  iter_guards net (fun _ g ->
      List.iter (fun v -> read.(v) <- true) (guard_reads g));
  iter_edges net (fun _ _ _ (e : Automaton.edge) ->
      List.iter
        (function
          | Update.Reset_clock (_, rhs) ->
              List.iter (fun v -> read.(v) <- true) (Expr.ivars rhs)
          | Update.Set_var (v, rhs) ->
              written.(v) <- true;
              List.iter (fun w -> read.(w) <- true) (Expr.ivars rhs))
        e.Automaton.update);
  let out = ref [] in
  for v = n - 1 downto 0 do
    if (not observed.(v)) && not read.(v) then
      out :=
        mk ~fix:"remove the variable or its updates" D.Dead_var D.Warning
          (D.Var_site v)
          (sprintf "variable %s is never read%s" net.Network.var_names.(v)
             (if written.(v) then " (only written)" else " nor written"))
        :: !out
  done;
  !out

(* ---- range-overflow ---- *)

(* Flow-powered: updates are checked against the interval analysis's
   per-location environment at the edge source, refined by the edge's
   own data guard — strictly tighter than the old declared-range scan,
   so guarded counter updates like [n < MAX -> n = n + 1] and
   protocol-invariant updates both stay silent.  Edges the analysis
   proves dead never run their updates and are skipped (the dead-edge
   pass owns them). *)
let range_pass fa (net : Network.t) =
  let out = ref [] in
  iter_edges net (fun ci ei _a (e : Automaton.edge) ->
      if Flow.edge_status fa ci ei = Flow.Live then begin
      let site = D.Edge_site { comp = ci; edge = ei } in
      let env = Option.get (Flow.env_at fa ci e.Automaton.src) in
      let env =
        match Flow.refine env e.Automaton.guard.Guard.data with
        | Some env -> env
        | None -> env
      in
      (* a receiver's update runs after its sender's, which may have
         rewritten shared variables since the guard held: read those
         through the global range instead of the refined snapshot *)
      let ranges =
        match e.Automaton.sync with
        | Automaton.Recv _ ->
            Array.mapi
              (fun v iv ->
                if Flow.stable_var fa ci v then iv
                else (Flow.global_ranges fa).(v))
              env
        | Automaton.NoSync | Automaton.Send _ -> Array.copy env
      in
      List.iter
        (function
          | Update.Reset_clock (x, rhs) ->
              let lo, hi = Expr.interval ranges rhs in
              if hi < 0 then
                out :=
                  mk
                    ~fix:"guard the edge so the reset value stays non-negative"
                    D.Range_overflow D.Error site
                    (sprintf
                       "clock %s is always reset to a negative value \
                        ([%d, %d])"
                       net.Network.clock_names.(x) lo hi)
                  :: !out
              else if lo < 0 then
                out :=
                  mk
                    ~fix:"guard the edge so the reset value stays non-negative"
                    D.Range_overflow D.Info site
                    (sprintf
                       "clock %s may be reset to a negative value (down to %d)"
                       net.Network.clock_names.(x) lo)
                  :: !out
          | Update.Set_var (v, rhs) ->
              let lo, hi = Expr.interval ranges rhs in
              let dlo, dhi = net.Network.var_ranges.(v) in
              (* definite overflow (no valuation stays in range) is an
                 error; possible overflow is only Info — the interval
                 enclosure cannot see cross-component protocol
                 invariants like the generator's bounded queues, and
                 the checker's own Out_of_range exception still guards
                 the real runs *)
              if hi < dlo || lo > dhi then
                out :=
                  mk ~fix:"strengthen the guard or widen the declared range"
                    D.Range_overflow D.Error site
                    (sprintf
                       "update always sets %s to [%d, %d], outside its \
                        declared range [%d, %d]"
                       net.Network.var_names.(v) lo hi dlo dhi)
                  :: !out
              else if lo < dlo || hi > dhi then
                out :=
                  mk ~fix:"strengthen the guard or widen the declared range"
                    D.Range_overflow D.Info site
                    (sprintf
                       "update can set %s to [%d, %d], beyond its declared \
                        range [%d, %d]"
                       net.Network.var_names.(v) lo hi dlo dhi)
                  :: !out;
              (* later assignments in the same sequential update read
                 this value; clamp to the declared range (the runtime
                 would have raised otherwise) *)
              let lo' = max lo dlo and hi' = min hi dhi in
              if lo' <= hi' then ranges.(v) <- (lo', hi'))
        e.Automaton.update
      end);
  !out

(* ---- unreachable-location ---- *)

(* locations with an edge path from the initial location *)
let syntactic_reach (a : Automaton.t) =
  let nl = Array.length a.Automaton.locations in
  let seen = Array.make nl false in
  let rec visit l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter
        (fun ei -> visit (Automaton.edge a ei).Automaton.dst)
        (Automaton.out_edges a l)
    end
  in
  visit a.Automaton.initial;
  seen

let unreachable_pass (net : Network.t) =
  let out = ref [] in
  Array.iteri
    (fun ci (a : Automaton.t) ->
      let nl = Array.length a.Automaton.locations in
      let seen = syntactic_reach a in
      for l = 0 to nl - 1 do
        if not seen.(l) then
          out :=
            mk ~fix:"remove the location or add an edge reaching it"
              D.Unreachable_location D.Warning
              (D.Location_site { comp = ci; loc = l })
              "no edge path from the initial location reaches this location"
            :: !out
      done)
    net.Network.automata;
  !out

(* ---- invariant-misuse ---- *)

let invariant_pass (net : Network.t) =
  let out = ref [] in
  Array.iteri
    (fun ci (a : Automaton.t) ->
      Array.iteri
        (fun li (l : Automaton.location) ->
          let site = D.Location_site { comp = ci; loc = li } in
          let inv = l.Automaton.invariant in
          List.iter
            (fun (at : Guard.atom) ->
              match at.Guard.rel with
              | Guard.Ge | Guard.Gt ->
                  out :=
                    mk
                      ~fix:
                        "move the lower bound onto the guards of the edges \
                         entering or leaving the location"
                      D.Invariant_misuse D.Error site
                      (sprintf
                         "invariant puts a lower bound on clock %s: entering \
                          with a smaller value deadlocks instantly"
                         net.Network.clock_names.(at.Guard.clock))
                    :: !out
              | Guard.Eq ->
                  out :=
                    mk
                      ~fix:
                        "use an upper-bound invariant plus a lower-bound \
                         guard on the outgoing edges"
                      D.Invariant_misuse D.Warning site
                      (sprintf
                         "equality invariant on clock %s forbids any delay \
                          in this location"
                         net.Network.clock_names.(at.Guard.clock))
                    :: !out
              | Guard.Lt | Guard.Le -> ())
            inv.Guard.clocks;
          if inv.Guard.data <> Expr.True then
            out :=
              mk ~fix:"encode the data constraint in edge guards instead"
                D.Invariant_misuse D.Warning site
                "data predicate in an invariant is ignored by the symbolic \
                 semantics"
              :: !out)
        a.Automaton.locations)
    net.Network.automata;
  !out

(* ---- urgent-clock-guard ---- *)

(* Mirrors the [Network.Builder.build] validation as diagnostics; only
   networks built with [~validate:false] can still carry these. *)
let urgent_pass (net : Network.t) =
  let out = ref [] in
  iter_edges net (fun ci ei _a (e : Automaton.edge) ->
      let site = D.Edge_site { comp = ci; edge = ei } in
      let has_clock_guard = e.Automaton.guard.Guard.clocks <> [] in
      match e.Automaton.sync with
      | Automaton.NoSync -> ()
      | (Automaton.Send c | Automaton.Recv c) when has_clock_guard ->
          let ch = net.Network.channels.(c) in
          if ch.Channel.urgent then
            out :=
              mk
                ~fix:
                  "move the timing constraint into a location invariant or \
                   a preceding non-urgent edge"
                D.Urgent_clock_guard D.Error site
                (sprintf
                   "clock guard on urgent channel %s: urgency decides from \
                    data guards only, so the clock constraint is unsound"
                   ch.Channel.name)
              :: !out
          else if
            ch.Channel.kind = Channel.Broadcast && e.Automaton.sync = Recv c
          then
            out :=
              mk ~fix:"receive unconditionally and test the clock afterwards"
                D.Urgent_clock_guard D.Error site
                (sprintf
                   "clock guard on broadcast receiver %s: receiver sets \
                    would depend on the zone"
                   ch.Channel.name)
              :: !out
      | Automaton.Send _ | Automaton.Recv _ -> ());
  !out

(* ---- channel-peer ---- *)

let channel_pass (net : Network.t) =
  let nch = Array.length net.Network.channels in
  let senders = Array.make nch [] and receivers = Array.make nch [] in
  iter_edges net (fun ci _ei _a (e : Automaton.edge) ->
      match e.Automaton.sync with
      | Automaton.NoSync -> ()
      | Automaton.Send c -> senders.(c) <- ci :: senders.(c)
      | Automaton.Recv c -> receivers.(c) <- ci :: receivers.(c));
  let out = ref [] in
  Array.iteri
    (fun c (ch : Channel.t) ->
      let site = D.Channel_site c in
      match (ch.Channel.kind, senders.(c), receivers.(c)) with
      | _, [], [] ->
          out :=
            mk ~fix:"remove the channel declaration" D.Channel_peer D.Warning
              site
              (sprintf "channel %s is declared but never used" ch.Channel.name)
            :: !out
      | Channel.Binary, _ :: _, [] ->
          out :=
            mk ~fix:"add a receiving edge or make the channel broadcast"
              D.Channel_peer D.Error site
              (sprintf
                 "binary channel %s is sent but never received: senders \
                  block forever"
                 ch.Channel.name)
            :: !out
      | Channel.Binary, [], _ :: _ ->
          out :=
            mk ~fix:"add a sending edge" D.Channel_peer D.Error site
              (sprintf
                 "binary channel %s is received but never sent: receivers \
                  block forever"
                 ch.Channel.name)
            :: !out
      | Channel.Binary, s, r ->
          if not (List.exists (fun i -> List.exists (fun j -> i <> j) r) s)
          then
            out :=
              mk ~fix:"move the sender or the receiver to another component"
                D.Channel_peer D.Error site
                (sprintf
                   "every sender and receiver of binary channel %s lives in \
                    one component, which cannot synchronize with itself"
                   ch.Channel.name)
              :: !out
      (* broadcast with senders and no receivers: the paper's hurry!
         greediness idiom — intentionally silent *)
      | Channel.Broadcast, _ :: _, [] -> ()
      | Channel.Broadcast, [], _ :: _ ->
          out :=
            mk ~fix:"add a sending edge" D.Channel_peer D.Warning site
              (sprintf
                 "broadcast channel %s is received but never sent"
                 ch.Channel.name)
            :: !out
      | Channel.Broadcast, _, _ -> ())
    net.Network.channels;
  !out

(* ---- cycle machinery (committed-cycle, zeno-cycle) ---- *)

(* Tarjan over the locations of one automaton, restricted to the edges
   [keep] accepts.  Returns each SCC that actually contains a cycle
   (more than one member, or a self-loop) as
   [(members, edge indices with both endpoints inside)]. *)
let cyclic_sccs (a : Automaton.t) ~keep =
  let nl = Array.length a.Automaton.locations in
  let index = Array.make nl (-1) and low = Array.make nl 0 in
  let on_stack = Array.make nl false in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let succ l =
    List.filter_map
      (fun ei ->
        let e = Automaton.edge a ei in
        if keep ei e then Some (ei, e.Automaton.dst) else None)
      (Automaton.out_edges a l)
  in
  let rec strong l =
    index.(l) <- !counter;
    low.(l) <- !counter;
    incr counter;
    stack := l :: !stack;
    on_stack.(l) <- true;
    List.iter
      (fun (_, d) ->
        if index.(d) < 0 then begin
          strong d;
          if low.(d) < low.(l) then low.(l) <- low.(d)
        end
        else if on_stack.(d) && index.(d) < low.(l) then low.(l) <- index.(d))
      (succ l);
    if low.(l) = index.(l) then begin
      let rec pop acc =
        match !stack with
        | x :: rest ->
            stack := rest;
            on_stack.(x) <- false;
            if x = l then x :: acc else pop (x :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  for l = 0 to nl - 1 do
    if index.(l) < 0 then strong l
  done;
  List.filter_map
    (fun members ->
      let in_scc x = List.mem x members in
      let edges =
        List.concat_map
          (fun l ->
            List.filter_map
              (fun (ei, d) -> if in_scc d then Some ei else None)
              (succ l))
          members
      in
      let cyclic = match members with [ _ ] -> edges <> [] | _ -> true in
      if cyclic then Some (members, edges) else None)
    !sccs

let pp_members (a : Automaton.t) members =
  String.concat ", "
    (List.map
       (fun l -> (Automaton.location a l).Automaton.loc_name)
       members)

let committed_pass (net : Network.t) =
  let out = ref [] in
  Array.iteri
    (fun ci (a : Automaton.t) ->
      let committed l =
        (Automaton.location a l).Automaton.kind = Automaton.Committed
      in
      let keep _ (e : Automaton.edge) =
        committed e.Automaton.src && committed e.Automaton.dst
      in
      List.iter
        (fun (members, _) ->
          out :=
            mk ~fix:"break the cycle with a normal or urgent location"
              D.Committed_cycle D.Warning
              (D.Location_site { comp = ci; loc = List.hd members })
              (sprintf
                 "cycle through committed locations only (%s): the checker \
                  can livelock on zero-time discrete steps"
                 (pp_members a members))
            :: !out)
        (cyclic_sccs a ~keep))
    net.Network.automata;
  !out

let zeno_pass (net : Network.t) =
  let out = ref [] in
  Array.iteri
    (fun ci (a : Automaton.t) ->
      let committed l =
        (Automaton.location a l).Automaton.kind = Automaton.Committed
      in
      List.iter
        (fun (members, edges) ->
          (* all-committed cycles are the committed-cycle pass's job *)
          if not (List.for_all committed members) then begin
            let resets =
              List.concat_map
                (fun ei -> reset_clocks (Automaton.edge a ei).Automaton.update)
                edges
            in
            (* a clock bounded from below on the cycle forces >= 1 time
               unit per iteration ([x > c] already forces positive
               delay at c = 0) *)
            let lower_bounded x =
              List.exists
                (fun ei ->
                  List.exists
                    (fun (at : Guard.atom) ->
                      at.Guard.clock = x
                      &&
                      let lo, _ =
                        Expr.interval net.Network.var_ranges at.Guard.bound
                      in
                      match at.Guard.rel with
                      | Guard.Ge | Guard.Eq -> lo >= 1
                      | Guard.Gt -> lo >= 0
                      | Guard.Lt | Guard.Le -> false)
                    (Automaton.edge a ei).Automaton.guard.Guard.clocks)
                edges
            in
            if not (List.exists lower_bounded resets) then begin
              let synced =
                List.exists
                  (fun ei ->
                    (Automaton.edge a ei).Automaton.sync <> Automaton.NoSync)
                  edges
              in
              out :=
                mk
                  ~fix:
                    "reset a clock on the cycle and guard one of its edges \
                     with a positive lower bound on that clock"
                  D.Zeno_cycle
                  (if synced then D.Info else D.Warning)
                  (D.Location_site { comp = ci; loc = List.hd members })
                  (sprintf
                     "cycle (%s) resets no clock that the cycle also bounds \
                      from below: runs may converge in time%s"
                     (pp_members a members)
                     (if synced then
                        " (may be paced by a synchronization partner)"
                      else ""))
                :: !out
            end
          end)
        (cyclic_sccs a ~keep:(fun _ _ -> true)))
    net.Network.automata;
  !out

(* ---- dead-edge (semantic, flow-powered) ---- *)

let dead_edge_pass fa (net : Network.t) =
  let out = ref [] in
  (* a location edge paths reach but no variable valuation does: report
     once here rather than on each of its outgoing edges (their
     [Unreachable_source] status is cascade noise) *)
  Array.iteri
    (fun ci (a : Automaton.t) ->
      let seen = syntactic_reach a in
      Array.iteri
        (fun l _ ->
          if seen.(l) && not (Flow.reachable fa ci l) then
            out :=
              mk ~fix:"remove the location or fix the guards leading to it"
                D.Dead_edge D.Warning
                (D.Location_site { comp = ci; loc = l })
                "edge paths reach this location, but the interval analysis \
                 proves no variable valuation does: every incoming edge is \
                 dead"
              :: !out)
        a.Automaton.locations)
    net.Network.automata;
  iter_edges net (fun ci ei _a (e : Automaton.edge) ->
      let site = D.Edge_site { comp = ci; edge = ei } in
      match Flow.edge_status fa ci ei with
      | Flow.Live | Flow.Dead Flow.Unreachable_source -> ()
      | Flow.Dead Flow.Unsat_guard ->
          out :=
            mk ~fix:"remove the edge or repair its guard" D.Dead_edge
              D.Warning site
              "guard is unsatisfiable under the inferred variable intervals: \
               the edge can never fire"
            :: !out
      | Flow.Dead Flow.No_partner ->
          let c =
            match e.Automaton.sync with
            | Automaton.Send c | Automaton.Recv c -> c
            | Automaton.NoSync -> assert false
          in
          out :=
            mk ~fix:"align the partner guards or remove the edge" D.Dead_edge
              D.Warning site
              (sprintf
                 "no partner edge on channel %s is ever co-enabled with this \
                  one: the synchronization can never fire"
                 net.Network.channels.(c).Channel.name)
            :: !out);
  !out

(* ---- always-true-guard (semantic, flow-powered) ---- *)

let trivial_guard_pass fa (net : Network.t) =
  let out = ref [] in
  iter_edges net (fun ci ei _a (_e : Automaton.edge) ->
      if Flow.guard_data_trivial fa ci ei then
        out :=
          mk ~fix:"drop the data guard" D.Trivial_guard D.Hint
            (D.Edge_site { comp = ci; edge = ei })
            "data guard evaluates to true at every reachable valuation: it \
             never restricts the edge"
          :: !out);
  !out

(* ---- sync-write-race (semantic, flow-powered) ---- *)

let race_pass fa (net : Network.t) =
  List.map
    (fun (r : Flow.race) ->
      let si, _se = r.Flow.race_writer and ri, re = r.Flow.race_other in
      mk ~fix:"write the variable on one side of the synchronization only"
        D.Sync_write_race D.Warning
        (D.Edge_site { comp = ri; edge = re })
        (sprintf
           "both sides of a synchronization on channel %s write %s; \
            participants update sender-first, so this receiver's assignment \
            silently overwrites %s's"
           net.Network.channels.(r.Flow.race_chan).Channel.name
           net.Network.var_names.(r.Flow.race_var)
           net.Network.automata.(si).Automaton.name))
    (List.sort_uniq compare (Flow.races fa))

(* ---- outside-query-cone (semantic, slice-powered) ---- *)

(* Only meaningful when the caller names observed components: without a
   query there is no cone.  Merging is irrelevant to the removal set,
   so the cheaper [Coi] mode is enough. *)
let cone_pass fa ~observed_comps ~observed_clocks ~observed_vars
    (net : Network.t) =
  if observed_comps = [] then []
  else
    let goal =
      {
        Slice.g_comps = observed_comps;
        g_clocks = observed_clocks;
        g_vars = observed_vars;
      }
    in
    let sl = Slice.make ~mode:Slice.Coi ~fa net goal in
    List.map
      (fun ci ->
        mk
          ~fix:
            "drop the component from this analysis run, or connect it to \
             the query through a synchronization, shared variable or clock"
          D.Outside_cone D.Hint (D.Automaton_site ci)
          "component is outside the query's cone of influence: it cannot \
           block, force or retime anything the observed components, clocks \
           or variables depend on")
      sl.Slice.removed_comps

(* ---- merged-query-clock (syntactic mirror of Slice's CoiMerge) ---- *)

(* Groups the unpinned clocks with {!Slice.quasi_equal}, as
   {!Slice.make} does under [CoiMerge] — except over every edge of the
   network rather than the kept live edges, so equal signatures here
   imply equal signatures on any cone (a sound under-approximation:
   the pass only fires when merging definitely folds the clock).  A
   query clock that is a non-representative class member is answered
   through the representative; correct, but worth a warning because
   pinning the clock is the documented way to keep it distinct. *)
let merge_pass ~observed (net : Network.t) =
  if not (Array.exists Fun.id observed) then []
  else
    let merged_into =
      Slice.quasi_equal net
        ~candidate:(fun x -> not net.Network.pinned.(x))
        ~edges:(fun _ _ -> true)
    in
    List.filter_map
      (fun x ->
        let r = merged_into.(x) in
        if r < 0 || not observed.(x) then None
        else
          Some
            (mk ~fix:"pin the clock (bump its clock bound)"
               D.Merged_query_clock D.Warning (D.Clock_site x)
               (sprintf
                  "the query observes clock %s, but quasi-equal merging \
                   folds it into %s (identical reset pattern on every \
                   edge): verdicts are answered through the representative"
                  net.Network.clock_names.(x)
                  net.Network.clock_names.(r))))
      (List.init (Array.length merged_into) Fun.id)

(* ---- driver ---- *)

let run ?(observed_comps = []) ?(observed_clocks = []) ?(observed_vars = [])
    (net : Network.t) =
  let obs_c = Array.make (Array.length net.Network.clock_names) false in
  List.iter (fun x -> obs_c.(x) <- true) observed_clocks;
  let obs_v = Array.make (Array.length net.Network.var_names) false in
  List.iter (fun v -> obs_v.(v) <- true) observed_vars;
  let fa = Flow.analyze net in
  D.sort
    (List.concat
       [
         clock_passes ~observed:obs_c net;
         var_pass ~observed:obs_v net;
         range_pass fa net;
         unreachable_pass net;
         invariant_pass net;
         urgent_pass net;
         channel_pass net;
         committed_pass net;
         zeno_pass net;
         dead_edge_pass fa net;
         trivial_guard_pass fa net;
         race_pass fa net;
         cone_pass fa ~observed_comps ~observed_clocks ~observed_vars net;
         merge_pass ~observed:obs_c net;
       ])

(* Deterministic output order: findings with a source position first by
   (line, col), the rest in component-major site order, ties broken by
   the stable pass id — so lint output and [--fail-on] behavior never
   depend on pass scheduling. *)
let output_order ?pos findings =
  let key (d : D.t) =
    match (match pos with Some f -> f d.D.site | None -> None) with
    | Some (line, col) -> (1, line, col, D.site_key d.D.site, D.pass_id d.D.pass)
    | None -> (0, 0, 0, D.site_key d.D.site, D.pass_id d.D.pass)
  in
  List.stable_sort (fun a b -> compare (key a) (key b)) findings

let pp_report ?resolve ?pos net ppf findings =
  let findings = output_order ?pos findings in
  List.iter
    (fun d -> Format.fprintf ppf "%a@." (D.pp ?resolve net) d)
    findings;
  let e = D.count D.Error findings
  and w = D.count D.Warning findings
  and i = D.count D.Info findings
  and h = D.count D.Hint findings in
  Format.fprintf ppf "%d error%s, %d warning%s, %d info, %d hint%s@." e
    (if e = 1 then "" else "s")
    w
    (if w = 1 then "" else "s")
    i h
    (if h = 1 then "" else "s")

let to_json ?resolve ?pos (net : Network.t) findings =
  let findings = output_order ?pos findings in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"findings\": [";
  List.iteri
    (fun i (d : D.t) ->
      Buffer.add_string buf (if i > 0 then ",\n    " else "\n    ");
      let site = Format.asprintf "%a" (D.pp_site net) d.D.site in
      let str = D.json_string in
      Buffer.add_string buf
        (Printf.sprintf {|{"severity": %s, "pass": %s, "site": %s|}
           (str (D.severity_name d.D.severity))
           (str (D.pass_name d.D.pass)) (str site));
      (match Option.bind resolve (fun f -> f d.D.site) with
      | Some p -> Buffer.add_string buf (Printf.sprintf {|, "position": %s|} (str p))
      | None -> ());
      Buffer.add_string buf (Printf.sprintf {|, "message": %s|} (str d.D.message));
      (match d.D.fix with
      | Some f -> Buffer.add_string buf (Printf.sprintf {|, "fix": %s|} (str f))
      | None -> ());
      Buffer.add_string buf "}")
    findings;
  Buffer.add_string buf
    (if findings = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf
    (Printf.sprintf
       {|  "summary": {"errors": %d, "warnings": %d, "info": %d, "hints": %d}|}
       (D.count D.Error findings)
       (D.count D.Warning findings)
       (D.count D.Info findings)
       (D.count D.Hint findings));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
