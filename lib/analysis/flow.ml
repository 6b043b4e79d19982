open Ita_ta

(* ------------------------------------------------------------------ *)
(* Generic fixpoint solver                                             *)
(* ------------------------------------------------------------------ *)

(* Round-based chaotic iteration over int-indexed nodes in a join
   semilattice, with optional threshold widening: once a node's value
   has changed [widen_after] times, further growth goes through [widen]
   (which should jump to a coarse bound) so tall lattices converge in a
   bounded number of sweeps.  Both analyses below — the forward interval
   propagation and the backward L/U clock-bound resolution — are
   instances. *)
module Fixpoint = struct
  type 'a t = {
    values : 'a array;
    equal : 'a -> 'a -> bool;
    join : 'a -> 'a -> 'a;
    widen : ('a -> 'a -> 'a) option;
    hits : int array;
    mutable dirty : bool;
  }

  let widen_after = 8

  let create ~n ~bottom ~equal ~join ?widen () =
    {
      values = Array.make n bottom;
      equal;
      join;
      widen;
      hits = Array.make n 0;
      dirty = false;
    }

  let get s i = s.values.(i)

  (* external state (outside the node array) changed: keep sweeping *)
  let touch s = s.dirty <- true

  let update s i v =
    let old = s.values.(i) in
    let j = s.join old v in
    let j =
      match s.widen with
      | Some w when s.hits.(i) >= widen_after && not (s.equal j old) ->
          w old j
      | _ -> j
    in
    if not (s.equal j old) then begin
      s.values.(i) <- j;
      s.hits.(i) <- s.hits.(i) + 1;
      s.dirty <- true
    end

  let solve s sweep =
    let continue = ref true in
    while !continue do
      s.dirty <- false;
      sweep ();
      if not s.dirty then continue := false
    done
end

(* ------------------------------------------------------------------ *)
(* Interval environments                                               *)
(* ------------------------------------------------------------------ *)

(* A per-location abstract environment maps every variable to an
   interval; [None] stands for "no reachable valuation" (bottom).

   Concurrency is handled by an interference split: a variable is
   {e stable} for component [i] iff no other component ever assigns it
   — only then is the per-location interval meaningful.  Everything
   else is read through the flow-insensitive global range [G(v)]: the
   hull of the initial value and every value ever assigned anywhere
   (clamped to the declared range, which is sound because the runtime
   raises [Update.Out_of_range] beyond it).  Stored environments keep
   unstable entries pinned at the declared range so joins converge;
   reads go through {!merged}. *)

type tri = T | F | U

type dead_reason =
  | Unreachable_source  (** no reachable valuation enters the source *)
  | Unsat_guard  (** guard unsatisfiable under the source intervals *)
  | No_partner  (** sync with no co-enabled partner edge *)

type edge_status = Live | Dead of dead_reason

type race = {
  race_chan : Channel.id;
  race_writer : int * int;  (** sender (comp, edge) *)
  race_other : int * int;  (** receiver (comp, edge) *)
  race_var : Expr.var;
}

type t = {
  net : Network.t;
  stable : bool array array;  (** [stable.(comp).(var)] *)
  global : (int * int) array;  (** [G(v)] *)
  loc_env : (int * int) array option array array;
      (** normalized per-location envs; [None] = flow-unreachable *)
  status : edge_status array array;  (** [status.(comp).(edge)] *)
  trivial_data : bool array array;
      (** data guard <> True yet always satisfied at the source *)
  races : race list;
}

let reachable fa comp loc = fa.loc_env.(comp).(loc) <> None
let global_ranges fa = fa.global
let stable_var fa comp v = fa.stable.(comp).(v)
let edge_status fa comp edge = fa.status.(comp).(edge)
let guard_data_trivial fa comp edge = fa.trivial_data.(comp).(edge)
let races fa = fa.races

(* merged view: stable vars from the location, the rest from G *)
let merged_of ~stable ~global env =
  Array.mapi (fun v iv -> if stable.(v) then iv else global.(v)) env

let env_at fa comp loc =
  Option.map
    (merged_of ~stable:fa.stable.(comp) ~global:fa.global)
    fa.loc_env.(comp).(loc)

(* ---- three-valued evaluation over intervals ---- *)

let tri_not = function T -> F | F -> T | U -> U

let rec eval3 env (b : Expr.bexp) =
  match b with
  | Expr.True -> T
  | Expr.False -> F
  | Expr.And (a, b) -> (
      match (eval3 env a, eval3 env b) with
      | F, _ | _, F -> F
      | T, T -> T
      | _ -> U)
  | Expr.Or (a, b) -> (
      match (eval3 env a, eval3 env b) with
      | T, _ | _, T -> T
      | F, F -> F
      | _ -> U)
  | Expr.Not a -> tri_not (eval3 env a)
  | Expr.Cmp (op, a, b) -> (
      let la, ha = Expr.interval env a and lb, hb = Expr.interval env b in
      match op with
      | Expr.Eq -> if ha < lb || hb < la then F else if la = ha && lb = hb && la = lb then T else U
      | Expr.Ne -> tri_not (if ha < lb || hb < la then F else if la = ha && lb = hb && la = lb then T else U)
      | Expr.Lt -> if ha < lb then T else if la >= hb then F else U
      | Expr.Le -> if ha <= lb then T else if la > hb then F else U
      | Expr.Gt -> if la > hb then T else if ha <= lb then F else U
      | Expr.Ge -> if la >= hb then T else if ha < lb then F else U)

(* ---- guard refinement ---- *)

(* Tighten [env] by the conjuncts of a data guard of shape [v ~ e] /
   [e ~ v]; returns [None] when the guard is definitely unsatisfiable
   under [env] (a refined interval empties, or three-valued evaluation
   says [F]).  Disjunctions and negations refine nothing but still
   participate in the [eval3] satisfiability probe. *)
let refine env (b : Expr.bexp) =
  if eval3 env b = F then None
  else begin
    let env = Array.copy env in
    let ok = ref true in
    let clamp v lo hi =
      let l, h = env.(v) in
      let l' = max l lo and h' = min h hi in
      if l' <= h' then env.(v) <- (l', h') else ok := false
    in
    let apply_cmp cmp v lo hi =
      match cmp with
      | Expr.Eq -> clamp v lo hi
      | Expr.Le -> clamp v min_int hi
      | Expr.Lt -> clamp v min_int (if hi = min_int then hi else hi - 1)
      | Expr.Ge -> clamp v lo max_int
      | Expr.Gt -> clamp v (if lo = max_int then lo else lo + 1) max_int
      | Expr.Ne -> ()
    in
    let flip = function
      | Expr.Lt -> Expr.Gt
      | Expr.Le -> Expr.Ge
      | Expr.Gt -> Expr.Lt
      | Expr.Ge -> Expr.Le
      | (Expr.Eq | Expr.Ne) as c -> c
    in
    let rec go = function
      | Expr.And (a, b) ->
          go a;
          go b
      | Expr.Cmp (cmp, Expr.Var v, e) ->
          let lo, hi = Expr.interval env e in
          apply_cmp cmp v lo hi
      | Expr.Cmp (cmp, e, Expr.Var v) ->
          let lo, hi = Expr.interval env e in
          apply_cmp (flip cmp) v lo hi
      | _ -> ()
    in
    go b;
    if !ok then Some env else None
  end

(* Definite clock-guard contradiction under [env]: a lower-bound atom
   whose smallest possible constant exceeds the largest possible
   constant of an upper-bound atom on the same clock (over real-valued
   clocks, so strictness only matters at equality), or an upper bound
   that is certainly negative.  Invariants are not consulted — this is
   a guard-local test. *)
let clock_guard_unsat env (g : Guard.t) =
  let unsat = ref false in
  List.iter
    (fun (a : Guard.atom) ->
      let _, hi = Expr.interval env a.Guard.bound in
      match a.Guard.rel with
      | Guard.Le | Guard.Eq -> if hi < 0 then unsat := true
      | Guard.Lt -> if hi <= 0 then unsat := true
      | Guard.Ge | Guard.Gt -> ())
    g.Guard.clocks;
  List.iter
    (fun (l : Guard.atom) ->
      match l.Guard.rel with
      | Guard.Ge | Guard.Gt | Guard.Eq ->
          let llo, _ = Expr.interval env l.Guard.bound in
          List.iter
            (fun (u : Guard.atom) ->
              if u.Guard.clock = l.Guard.clock then
                match u.Guard.rel with
                | Guard.Le | Guard.Lt | Guard.Eq ->
                    let _, uhi = Expr.interval env u.Guard.bound in
                    let strict =
                      l.Guard.rel = Guard.Gt || u.Guard.rel = Guard.Lt
                    in
                    if llo > uhi || (strict && llo >= uhi) then unsat := true
                | Guard.Ge | Guard.Gt -> ())
            g.Guard.clocks
      | Guard.Le | Guard.Lt -> ())
    g.Guard.clocks;
  !unsat

(* ------------------------------------------------------------------ *)
(* The forward interval analysis                                       *)
(* ------------------------------------------------------------------ *)

let written_vars (u : Update.t) =
  List.filter_map
    (function Update.Set_var (v, _) -> Some v | Update.Reset_clock _ -> None)
    u

let analyze (net : Network.t) =
  let nc = Array.length net.Network.automata in
  let nv = Array.length net.Network.var_names in
  let declared = net.Network.var_ranges in
  (* interference: which components assign which variables *)
  let writes = Array.make_matrix nc nv false in
  Array.iteri
    (fun i (a : Automaton.t) ->
      Array.iter
        (fun (e : Automaton.edge) ->
          List.iter (fun v -> writes.(i).(v) <- true)
            (written_vars e.Automaton.update))
        a.Automaton.edges)
    net.Network.automata;
  let stable =
    Array.init nc (fun i ->
        Array.init nv (fun v ->
            let rec others j =
              j < nc && ((j <> i && writes.(j).(v)) || others (j + 1))
            in
            not (others 0)))
  in
  (* node flattening: one node per (component, location) *)
  let offsets = Array.make nc 0 in
  let total = ref 0 in
  Array.iteri
    (fun i (a : Automaton.t) ->
      offsets.(i) <- !total;
      total := !total + Array.length a.Automaton.locations)
    net.Network.automata;
  let node i l = offsets.(i) + l in
  let widen_env old j =
    match (old, j) with
    | None, x | x, None -> x
    | Some o, Some jn ->
        Some
          (Array.mapi
             (fun v (jl, jh) ->
               let ol, oh = o.(v) in
               let dl, dh = declared.(v) in
               ((if jl < ol then dl else jl), (if jh > oh then dh else jh)))
             jn)
  in
  let join_env a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b ->
        Some
          (Array.mapi
             (fun v (la, ha) ->
               let lb, hb = b.(v) in
               (min la lb, max ha hb))
             a)
  in
  let solver =
    Fixpoint.create ~n:!total ~bottom:None ~equal:( = ) ~join:join_env
      ~widen:widen_env ()
  in
  (* the flow-insensitive global range, with its own widening counters *)
  let global = Array.copy net.Network.var_init |> Array.map (fun v -> (v, v)) in
  let g_hits = Array.make nv 0 in
  let g_update v (lo, hi) =
    let dl, dh = declared.(v) in
    let lo = max lo dl and hi = min hi dh in
    if lo <= hi then begin
      let gl, gh = global.(v) in
      let nl = min gl lo and nh = max gh hi in
      let nl, nh =
        if g_hits.(v) >= 8 then
          ((if nl < gl then dl else nl), (if nh > gh then dh else nh))
        else (nl, nh)
      in
      if (nl, nh) <> global.(v) then begin
        global.(v) <- (nl, nh);
        g_hits.(v) <- g_hits.(v) + 1;
        Fixpoint.touch solver
      end
    end
  in
  let merged i env = merged_of ~stable:stable.(i) ~global env in
  let normalize i env =
    Array.mapi (fun v iv -> if stable.(i).(v) then iv else declared.(v)) env
  in
  (* sequential update transfer: [read] supplies the evaluation
     environment (already refined as appropriate for the caller);
     assigned values feed G and, clamped, the running environment.
     Returns [None] when an assignment definitely escapes its declared
     range — the runtime would raise, so nothing propagates. *)
  let apply_updates read (u : Update.t) =
    let cur = Array.copy read in
    let ok = ref true in
    List.iter
      (fun (asg : Update.assign) ->
        if !ok then
          match asg with
          | Update.Reset_clock _ -> ()
          | Update.Set_var (v, rhs) ->
              let lo, hi = Expr.interval cur rhs in
              g_update v (lo, hi);
              let dl, dh = declared.(v) in
              let lo = max lo dl and hi = min hi dh in
              if lo <= hi then cur.(v) <- (lo, hi) else ok := false)
      u;
    if !ok then Some cur else None
  in
  (* receiver updates run after the sender's, so unstable reads must go
     through G rather than the guard-refined snapshot *)
  let recv_read j refined =
    Array.mapi (fun v iv -> if stable.(j).(v) then iv else global.(v)) refined
  in
  let edge i ei = Automaton.edge net.Network.automata.(i) ei in
  (* sync edge tables *)
  let nch = Array.length net.Network.channels in
  let senders = Array.make nch [] and receivers = Array.make nch [] in
  Array.iteri
    (fun i (a : Automaton.t) ->
      Array.iteri
        (fun ei (e : Automaton.edge) ->
          match e.Automaton.sync with
          | Automaton.NoSync -> ()
          | Automaton.Send c -> senders.(c) <- (i, ei) :: senders.(c)
          | Automaton.Recv c -> receivers.(c) <- (i, ei) :: receivers.(c))
        a.Automaton.edges)
    net.Network.automata;
  let src_env i ei =
    match Fixpoint.get solver (node i (edge i ei).Automaton.src) with
    | None -> None
    | Some env -> Some (merged i env)
  in
  (* joint source environment of a co-enabled candidate pair: stable
     vars from their respective locations, the rest from G *)
  let pair_env i envi j envj =
    Array.init nv (fun v ->
        if stable.(i).(v) then envi.(v)
        else if stable.(j).(v) then envj.(v)
        else global.(v))
  in
  let refine_guard env (g : Guard.t) =
    match refine env g.Guard.data with
    | None -> None
    | Some env -> if clock_guard_unsat env g then None else Some env
  in
  let propagate i dst env = Fixpoint.update solver (node i dst) (Some (normalize i env)) in
  (* one co-enabled sender/receiver pair: refine by both guards, then
     run the sender's update first (matching [Semantics.fire]) *)
  let pair_transfer (i, se) (j, re) =
    match (src_env i se, src_env j re) with
    | Some envi, Some envj -> (
        let es = edge i se and er = edge j re in
        let env = pair_env i envi j envj in
        match refine_guard env es.Automaton.guard with
        | None -> false
        | Some env -> (
            match refine_guard env er.Automaton.guard with
            | None -> false
            | Some env ->
                (match apply_updates env es.Automaton.update with
                | Some post -> propagate i es.Automaton.dst post
                | None -> ());
                (match apply_updates (recv_read j env) er.Automaton.update with
                | Some post -> propagate j er.Automaton.dst post
                | None -> ());
                true))
    | _ -> false
  in
  let sweep () =
    (* initial states *)
    Array.iteri
      (fun i (a : Automaton.t) ->
        let init =
          Array.init nv (fun v ->
              if stable.(i).(v) then
                (net.Network.var_init.(v), net.Network.var_init.(v))
              else declared.(v))
        in
        Fixpoint.update solver (node i a.Automaton.initial) (Some init))
      net.Network.automata;
    (* internal edges *)
    Array.iteri
      (fun i (a : Automaton.t) ->
        Array.iter
          (fun (e : Automaton.edge) ->
            if e.Automaton.sync = Automaton.NoSync then
              match Fixpoint.get solver (node i e.Automaton.src) with
              | None -> ()
              | Some env -> (
                  match refine_guard (merged i env) e.Automaton.guard with
                  | None -> ()
                  | Some env -> (
                      match apply_updates env e.Automaton.update with
                      | Some post -> propagate i e.Automaton.dst post
                      | None -> ())))
          a.Automaton.edges)
      net.Network.automata;
    (* synchronizations *)
    Array.iteri
      (fun c (ch : Channel.t) ->
        (* broadcast senders fire without receivers *)
        if ch.Channel.kind = Channel.Broadcast then
          List.iter
            (fun (i, se) ->
              match src_env i se with
              | None -> ()
              | Some env -> (
                  let e = edge i se in
                  match refine_guard env e.Automaton.guard with
                  | None -> ()
                  | Some env -> (
                      match apply_updates env e.Automaton.update with
                      | Some post -> propagate i e.Automaton.dst post
                      | None -> ())))
            senders.(c);
        List.iter
          (fun (i, se) ->
            List.iter
              (fun (j, re) -> if j <> i then ignore (pair_transfer (i, se) (j, re)))
              receivers.(c))
          senders.(c))
      net.Network.channels
  in
  Fixpoint.solve solver sweep;
  (* ---- final edge classification ---- *)
  let loc_env =
    Array.init nc (fun i ->
        let nl = Array.length net.Network.automata.(i).Automaton.locations in
        Array.init nl (fun l -> Fixpoint.get solver (node i l)))
  in
  let co_enabled (i, se) (j, re) =
    match (src_env i se, src_env j re) with
    | Some envi, Some envj -> (
        let env = pair_env i envi j envj in
        match refine_guard env (edge i se).Automaton.guard with
        | None -> false
        | Some env -> refine_guard env (edge j re).Automaton.guard <> None)
    | _ -> false
  in
  let structural_partners c i = function
    | `Send -> List.exists (fun (j, _) -> j <> i) receivers.(c)
    | `Recv -> List.exists (fun (j, _) -> j <> i) senders.(c)
  in
  let live_partner c i ei = function
    | `Send -> List.exists (fun (j, re) -> j <> i && co_enabled (i, ei) (j, re)) receivers.(c)
    | `Recv -> List.exists (fun (j, se) -> j <> i && co_enabled (j, se) (i, ei)) senders.(c)
  in
  let status =
    Array.mapi
      (fun i (a : Automaton.t) ->
        Array.mapi
          (fun ei (e : Automaton.edge) ->
            if loc_env.(i).(e.Automaton.src) = None then
              Dead Unreachable_source
            else
              match src_env i ei with
              | None -> Dead Unreachable_source
              | Some env -> (
                  match refine_guard env e.Automaton.guard with
                  | None -> Dead Unsat_guard
                  | Some _ -> (
                      match e.Automaton.sync with
                      | Automaton.NoSync -> Live
                      | Automaton.Send c
                        when net.Network.channels.(c).Channel.kind
                             = Channel.Broadcast ->
                          Live
                      | Automaton.Send c ->
                          (* only flag edges whose channel does have
                             structural partners: a partnerless channel
                             is the channel-peer pass's finding *)
                          if
                            structural_partners c i `Send
                            && not (live_partner c i ei `Send)
                          then Dead No_partner
                          else Live
                      | Automaton.Recv c ->
                          if
                            structural_partners c i `Recv
                            && not (live_partner c i ei `Recv)
                          then Dead No_partner
                          else Live)))
          a.Automaton.edges)
      net.Network.automata
  in
  let trivial_data =
    Array.mapi
      (fun i (a : Automaton.t) ->
        Array.mapi
          (fun ei (e : Automaton.edge) ->
            status.(i).(ei) = Live
            && e.Automaton.guard.Guard.data <> Expr.True
            &&
            match src_env i ei with
            | None -> false
            | Some env -> eval3 env e.Automaton.guard.Guard.data = T)
          a.Automaton.edges)
      net.Network.automata
  in
  (* shared-variable write-write races on co-enabled synchronizing
     edges: the receiver's assignment silently overwrites the
     sender's (participants update in sender-first order) *)
  let races = ref [] in
  Array.iteri
    (fun c (_ch : Channel.t) ->
      List.iter
        (fun (i, se) ->
          List.iter
            (fun (j, re) ->
              if
                j <> i
                && status.(i).(se) = Live
                && status.(j).(re) = Live
                && co_enabled (i, se) (j, re)
              then begin
                let ws = written_vars (edge i se).Automaton.update in
                let wr = written_vars (edge j re).Automaton.update in
                List.iter
                  (fun v ->
                    if List.mem v ws then
                      races :=
                        {
                          race_chan = c;
                          race_writer = (i, se);
                          race_other = (j, re);
                          race_var = v;
                        }
                        :: !races)
                  (List.sort_uniq compare wr)
              end)
            receivers.(c))
        senders.(c))
    net.Network.channels;
  {
    net;
    stable;
    global;
    loc_env;
    status;
    trivial_data;
    races = List.rev !races;
  }

(* ------------------------------------------------------------------ *)
(* The backward L/U clock-bound fixpoint                               *)
(* ------------------------------------------------------------------ *)

(* Per-location L/U constants: a location's bound for a clock covers
   every constant the clock can still be compared against before its
   next reset along that component.  Lower-bound atoms ([x >(=) c])
   feed L, upper-bound atoms and invariants feed U, [==] feeds both,
   and reset magnitudes feed both.  The same sweep computes clock
   activity (Daws-Yovine): a clock is active where some atom can still
   test it before its next reset, whatever the constant.  Computed
   over the {e live} part of the control-flow graph with guard/reset
   constants evaluated under the flow-refined intervals — the second
   instantiation of {!Fixpoint}.  A flow-unreachable location keeps
   the bottom row: every bound 0, every clock inactive.  The [floor]
   (query constants), [pinned] and the classical [k] are untouched. *)

let refine_lu fa (net : Network.t) =
  let n_clocks = Array.length net.Network.clock_names in
  let lu_of i (a : Automaton.t) =
    let nl = Array.length a.Automaton.locations in
    let reach l = fa.loc_env.(i).(l) <> None in
    (* per-edge constants under the refined source environment,
       computed once: (guard atoms as (clock, rel, c)), reset
       magnitudes, reset clock set *)
    let edge_consts =
      Array.mapi
        (fun ei (e : Automaton.edge) ->
          if fa.status.(i).(ei) <> Live then Option.None
          else
            match env_at fa i e.Automaton.src with
            | Option.None -> Option.None
            | Some env ->
                let env =
                  match refine env e.Automaton.guard.Guard.data with
                  | Some env -> env
                  | Option.None -> env
                in
                (* a receiver's update runs after the sender's: read
                   unstable vars through G, not the refined snapshot *)
                let read =
                  match e.Automaton.sync with
                  | Automaton.Recv _ ->
                      Array.mapi
                        (fun v iv ->
                          if fa.stable.(i).(v) then iv else fa.global.(v))
                        env
                  | Automaton.NoSync | Automaton.Send _ -> Array.copy env
                in
                let atoms =
                  List.map
                    (fun (at : Guard.atom) ->
                      let lo, hi = Expr.interval env at.Guard.bound in
                      (at.Guard.clock, at.Guard.rel, max (abs lo) (abs hi)))
                    e.Automaton.guard.Guard.clocks
                in
                let mags = ref [] and resets = ref [] in
                List.iter
                  (fun (asg : Update.assign) ->
                    match asg with
                    | Update.Reset_clock (x, rhs) ->
                        let lo, hi = Expr.interval read rhs in
                        mags := (x, max (abs lo) (abs hi)) :: !mags;
                        resets := x :: !resets
                    | Update.Set_var (v, rhs) ->
                        let lo, hi = Expr.interval read rhs in
                        let dl, dh = net.Network.var_ranges.(v) in
                        let lo = max lo dl and hi = min hi dh in
                        if lo <= hi then read.(v) <- (lo, hi))
                  e.Automaton.update;
                Some (atoms, !mags, !resets))
        a.Automaton.edges
    in
    let inv_consts =
      Array.mapi
        (fun l (loc : Automaton.location) ->
          if not (reach l) then []
          else
            match env_at fa i l with
            | Option.None -> []
            | Some env ->
                List.map
                  (fun (at : Guard.atom) ->
                    let lo, hi = Expr.interval env at.Guard.bound in
                    (at.Guard.clock, at.Guard.rel, max (abs lo) (abs hi)))
                  loc.Automaton.invariant.Guard.clocks)
        a.Automaton.locations
    in
    (* value per location: L row ++ U row ++ activity row (0 or 1) *)
    let solver =
      Fixpoint.create ~n:nl
        ~bottom:(Array.make (3 * n_clocks) 0)
        ~equal:( = )
        ~join:(fun a b -> Array.mapi (fun k c -> max c b.(k)) a)
        ()
    in
    (* chaotic per-location update (backward: sources absorb their
       successors' rows) *)
    let sweep () =
      for l = nl - 1 downto 0 do
        if reach l then begin
          let row = Array.copy (Fixpoint.get solver l) in
          let bump_l x c = if c > row.(x) then row.(x) <- c in
          let bump_u x c =
            if c > row.(n_clocks + x) then row.(n_clocks + x) <- c
          in
          let activate x = row.((2 * n_clocks) + x) <- 1 in
          let scan (x, rel, c) =
            activate x;
            match rel with
            | Guard.Ge | Guard.Gt -> bump_l x c
            | Guard.Le | Guard.Lt -> bump_u x c
            | Guard.Eq ->
                bump_l x c;
                bump_u x c
          in
          List.iter scan inv_consts.(l);
          List.iter
            (fun ei ->
              match edge_consts.(ei) with
              | Option.None -> ()
              | Some (atoms, mags, resets) ->
                  List.iter scan atoms;
                  List.iter
                    (fun (x, c) ->
                      bump_l x c;
                      bump_u x c)
                    mags;
                  let dst =
                    Fixpoint.get solver (Automaton.edge a ei).Automaton.dst
                  in
                  for x = 1 to n_clocks - 1 do
                    if not (List.mem x resets) then begin
                      bump_l x dst.(x);
                      bump_u x dst.(n_clocks + x);
                      if dst.((2 * n_clocks) + x) > 0 then activate x
                    end
                  done)
            (Automaton.out_edges a l);
          Fixpoint.update solver l row
        end
      done
    in
    Fixpoint.solve solver sweep;
    let rows = Array.init nl (Fixpoint.get solver) in
    ( Array.map (fun row -> Array.sub row 0 n_clocks) rows,
      Array.map (fun row -> Array.sub row n_clocks n_clocks) rows,
      Array.map
        (fun row -> Array.init n_clocks (fun x -> row.((2 * n_clocks) + x) > 0))
        rows )
in
  let tables = Array.mapi lu_of net.Network.automata in
  {
    net with
    Network.lloc = Array.map (fun (l, _, _) -> l) tables;
    uloc = Array.map (fun (_, u, _) -> u) tables;
    active = Array.map (fun (_, _, a) -> a) tables;
  }

let refine_network net = refine_lu (analyze net) net

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_interval ppf (lo, hi) =
  if lo = hi then Format.fprintf ppf "%d" lo
  else Format.fprintf ppf "[%d, %d]" lo hi

let pp ?resolve fa ppf () =
  let net = fa.net in
  let pos site =
    match resolve with
    | Some f -> ( match f site with Some p -> p ^ ": " | None -> "")
    | None -> ""
  in
  Array.iteri
    (fun i (a : Automaton.t) ->
      Format.fprintf ppf "%s%s@."
        (pos (`Automaton i))
        a.Automaton.name;
      Array.iteri
        (fun l (loc : Automaton.location) ->
          Format.fprintf ppf "%s  %s: " (pos (`Location (i, l))) loc.Automaton.loc_name;
          (match env_at fa i l with
          | None -> Format.fprintf ppf "unreachable"
          | Some env ->
              if Array.length env = 0 then Format.fprintf ppf "reachable"
              else begin
                let first = ref true in
                Array.iteri
                  (fun v iv ->
                    if !first then first := false
                    else Format.fprintf ppf ", ";
                    Format.fprintf ppf "%s in %a" net.Network.var_names.(v)
                      pp_interval iv)
                  env
              end);
          Format.fprintf ppf "@.")
        a.Automaton.locations)
    net.Network.automata;
  if Array.length net.Network.var_names > 0 then begin
    Format.fprintf ppf "global ranges:@.";
    Array.iteri
      (fun v iv ->
        let dl, dh = net.Network.var_ranges.(v) in
        Format.fprintf ppf "  %s in %a (declared [%d, %d])@."
          net.Network.var_names.(v) pp_interval iv dl dh)
      fa.global
  end
