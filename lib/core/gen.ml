open Ita_ta
module Query = Ita_mc.Query

type observer = { obs_clock : Guard.clock; seen : Query.t }
type t = { net : Network.t; observer : observer option; sys : Sysmodel.t }

let queue_name scen k = Printf.sprintf "q_%s_%d" scen k
let done_name scen k = Printf.sprintf "done_%s_%d" scen k

(* ------------------------------------------------------------------ *)
(* Small guard/update helpers                                          *)
(* ------------------------------------------------------------------ *)

let var_gt0 v = Guard.data Expr.(Cmp (Gt, Var v, Int 0))
let var_eq v c = Guard.data Expr.(Cmp (Eq, Var v, Int c))
let all_zero vars = List.fold_left (fun g v -> Guard.conj g (var_eq v 0)) Guard.tt vars

let loc ?(kind = Automaton.Normal) ?(invariant = Guard.tt) loc_name =
  { Automaton.loc_name; invariant; kind }

let edge ?(guard = Guard.tt) ?(sync = Automaton.NoSync) ?(update = Update.none)
    src dst =
  { Automaton.src; guard; sync; update; dst }

(* ------------------------------------------------------------------ *)
(* Resource automata (paper Figures 4, 5 and 6)                        *)
(* ------------------------------------------------------------------ *)

type job = {
  job_name : string;
  duration : int;  (* us *)
  band : Scenario.band;
  queue : Expr.var;  (* this job's pending counter *)
  next_queue : Expr.var option;  (* the downstream step's counter *)
  done_chan : Channel.id option;  (* completion broadcast, if observed *)
  frames : (int * int * Expr.var) option;
      (* segmented links: frame count, frame duration, remaining-frames
         counter *)
}

let completion_update job =
  match job.next_queue with
  | Some q -> Update.incr q
  | None -> Update.none

let completion_sync job =
  match job.done_chan with
  | Some c -> Automaton.Send c
  | None -> Automaton.NoSync

(* Guard blocking a Low-band job while any High-band job is pending;
   trivial under the nondeterministic policy. *)
let admission_guard policy jobs job =
  match (policy, job.band) with
  | Resource.Nondet_nonpreemptive, _ | _, Scenario.High -> var_gt0 job.queue
  | ( ( Resource.Priority_nonpreemptive | Resource.Priority_preemptive
      | Resource.Tdma _ | Resource.Priority_segmented _ ),
      Scenario.Low ) ->
      let high_queues =
        List.filter_map
          (fun j -> if j.band = Scenario.High then Some j.queue else None)
          jobs
      in
      Guard.conj (var_gt0 job.queue) (all_zero high_queues)

let nonpreemptive_automaton ~policy ~x jobs =
  let idle = 0 in
  let busy ji = 1 + ji in
  let locations =
    loc "idle"
    :: List.map
         (fun j ->
           loc ("busy_" ^ j.job_name)
             ~invariant:(Guard.clock_le x j.duration))
         jobs
  in
  let edges =
    List.concat
      (List.mapi
         (fun ji j ->
           [
             edge idle (busy ji)
               ~guard:(admission_guard policy jobs j)
               ~update:(Update.seq [ Update.decr j.queue; Update.reset x ]);
             edge (busy ji) idle
               ~guard:(Guard.clock_eq x j.duration)
               ~sync:(completion_sync j)
               ~update:(completion_update j);
           ])
         jobs)
  in
  (locations, edges)

(* The Figure 5 pattern.  High-band jobs run to completion; a Low-band
   job tracks its (possibly extended) demand in [d_var] and yields to
   any pending High-band job via the preemption locations. *)
let preemptive_automaton ~x ~y ~d_var jobs =
  let high = List.filter (fun j -> j.band = Scenario.High) jobs in
  let low = List.filter (fun j -> j.band = Scenario.Low) jobs in
  let n_high = List.length high and n_low = List.length low in
  let idle = 0 in
  let busy_high hi = 1 + hi in
  let busy_low li = 1 + n_high + li in
  let pre li hi = 1 + n_high + n_low + (li * n_high) + hi in
  let locations =
    (loc "idle"
    :: List.map
         (fun j ->
           loc ("busy_" ^ j.job_name)
             ~invariant:(Guard.clock_le x j.duration))
         high)
    @ List.map
        (fun j ->
          loc ("busy_" ^ j.job_name)
            ~invariant:(Guard.clock_rel x Guard.Le (Expr.Var d_var)))
        low
    @ List.concat_map
        (fun jl ->
          List.map
            (fun jh ->
              loc
                (Printf.sprintf "pre_%s_%s" jl.job_name jh.job_name)
                ~invariant:(Guard.clock_le y jh.duration))
            high)
        low
  in
  let start_high =
    List.mapi
      (fun hi j ->
        edge idle (busy_high hi) ~guard:(var_gt0 j.queue)
          ~update:(Update.seq [ Update.decr j.queue; Update.reset x ]))
      high
  in
  let start_low =
    List.mapi
      (fun li j ->
        edge idle (busy_low li)
          ~guard:(admission_guard Resource.Priority_preemptive jobs j)
          ~update:
            (Update.seq
               [
                 Update.decr j.queue;
                 Update.reset x;
                 Update.set d_var (Expr.Int j.duration);
               ]))
      low
  in
  let finish_high =
    List.mapi
      (fun hi j ->
        edge (busy_high hi) idle
          ~guard:(Guard.clock_eq x j.duration)
          ~sync:(completion_sync j) ~update:(completion_update j))
      high
  in
  let finish_low =
    List.mapi
      (fun li j ->
        edge (busy_low li) idle
          ~guard:(Guard.clock_rel x Guard.Eq (Expr.Var d_var))
          ~sync:(completion_sync j)
          ~update:(Update.seq [ Update.set d_var (Expr.Int 0); completion_update j ]))
      low
  in
  let preempt =
    List.concat
      (List.mapi
         (fun li _jl ->
           List.mapi
             (fun hi jh ->
               edge (busy_low li) (pre li hi) ~guard:(var_gt0 jh.queue)
                 ~update:(Update.seq [ Update.decr jh.queue; Update.reset y ]))
             high)
         low)
  in
  let resume =
    List.concat
      (List.mapi
         (fun li _jl ->
           List.mapi
             (fun hi jh ->
               edge (pre li hi) (busy_low li)
                 ~guard:(Guard.clock_eq y jh.duration)
                 ~sync:(completion_sync jh)
                 ~update:
                   (Update.seq
                      [
                        Update.set d_var
                          Expr.(Add (Var d_var, Int jh.duration));
                        completion_update jh;
                      ]))
             high)
         low)
  in
  (locations, start_high @ start_low @ finish_high @ finish_low @ preempt @ resume)

(* Segmented link (CAN-like): a message of n frames holds the medium
   for one frame at a time and re-arbitrates in between, so it can
   block a rival for at most one frame.  The remaining-frames counter
   carries the message across arbitration rounds. *)
let segmented_automaton ~policy ~x jobs =
  let idle = 0 in
  let sending ji = 1 + ji in
  let locations =
    loc "idle"
    :: List.map
         (fun j ->
           let fdur =
             match j.frames with
             | Some (_, fdur, _) -> fdur
             | None -> j.duration
           in
           loc ("sending_" ^ j.job_name) ~invariant:(Guard.clock_le x fdur))
         jobs
  in
  let edges =
    List.concat
      (List.mapi
         (fun ji j ->
           match j.frames with
           | None ->
               (* single-frame message: the plain Figure 6 pattern *)
               [
                 edge idle (sending ji)
                   ~guard:(admission_guard policy jobs j)
                   ~update:(Update.seq [ Update.decr j.queue; Update.reset x ]);
                 edge (sending ji) idle
                   ~guard:(Guard.clock_eq x j.duration)
                   ~sync:(completion_sync j)
                   ~update:(completion_update j);
               ]
           | Some (count, fdur, fvar) ->
               [
                 (* start a fresh message: first frame goes out, the
                    rest are accounted in the frame counter *)
                 edge idle (sending ji)
                   ~guard:
                     (Guard.conj
                        (admission_guard policy jobs j)
                        (var_eq fvar 0))
                   ~update:
                     (Update.seq
                        [
                          Update.decr j.queue;
                          Update.set fvar (Expr.Int (count - 1));
                          Update.reset x;
                        ]);
                 (* continuation frame, competing in arbitration *)
                 edge idle (sending ji)
                   ~guard:
                     (Guard.conj (var_gt0 fvar)
                        (match j.band with
                        | Scenario.High -> Guard.tt
                        | Scenario.Low ->
                            all_zero
                              (List.filter_map
                                 (fun j' ->
                                   if j'.band = Scenario.High then
                                     Some j'.queue
                                   else None)
                                 jobs)))
                   ~update:(Update.seq [ Update.decr fvar; Update.reset x ]);
                 (* frame boundary: message done or back to arbitration *)
                 edge (sending ji) idle
                   ~guard:
                     (Guard.conj (Guard.clock_eq x fdur) (var_eq fvar 0))
                   ~sync:(completion_sync j)
                   ~update:(completion_update j);
                 edge (sending ji) idle
                   ~guard:(Guard.conj (Guard.clock_eq x fdur) (var_gt0 fvar));
               ])
         jobs)
  in
  (locations, edges)

(* The TDMA pattern: the resource alternates a live window (slot) and a
   blackout; a job caught by the blackout is suspended and its demand
   variable extended by the blackout length — the Figure 5 trick with
   the blackout as a fixed-length preemptor.  Jobs do not preempt each
   other; admission uses the usual priority guards. *)
let tdma_automaton ~policy ~x ~s ~d_var ~slot ~cycle jobs =
  let n = List.length jobs in
  let win_idle = 0 and blackout_idle = 1 in
  let busy ji = 2 + ji in
  let pre ji = 2 + n + ji in
  let blackout = cycle - slot in
  let in_window = Guard.clock_le s slot in
  let in_cycle = Guard.clock_le s cycle in
  let locations =
    [
      loc "win_idle" ~invariant:in_window;
      loc "blackout_idle" ~invariant:in_cycle;
    ]
    @ List.map
        (fun j ->
          loc ("busy_" ^ j.job_name)
            ~invariant:
              (Guard.conj
                 (Guard.clock_rel x Guard.Le (Expr.Var d_var))
                 in_window))
        jobs
    @ List.map
        (fun j -> loc ("pre_" ^ j.job_name) ~invariant:in_cycle)
        jobs
  in
  let cycle_keeping =
    [
      edge win_idle blackout_idle ~guard:(Guard.clock_eq s slot);
      edge blackout_idle win_idle
        ~guard:(Guard.clock_eq s cycle)
        ~update:(Update.reset s);
    ]
  in
  let per_job =
    List.concat
      (List.mapi
         (fun ji j ->
           [
             edge win_idle (busy ji)
               ~guard:(admission_guard policy jobs j)
               ~update:
                 (Update.seq
                    [
                      Update.decr j.queue;
                      Update.reset x;
                      Update.set d_var (Expr.Int j.duration);
                    ]);
             edge (busy ji) win_idle
               ~guard:(Guard.clock_rel x Guard.Eq (Expr.Var d_var))
               ~sync:(completion_sync j)
               ~update:
                 (Update.seq
                    [ Update.set d_var (Expr.Int 0); completion_update j ]);
             edge (busy ji) (pre ji) ~guard:(Guard.clock_eq s slot);
             edge (pre ji) (busy ji)
               ~guard:(Guard.clock_eq s cycle)
               ~update:
                 (Update.seq
                    [
                      Update.reset s;
                      Update.set d_var Expr.(Add (Var d_var, Int blackout));
                    ]);
           ])
         jobs)
  in
  (locations, cycle_keeping @ per_job)

(* ------------------------------------------------------------------ *)
(* Environment automata (paper Figures 7 and 8)                        *)
(* ------------------------------------------------------------------ *)

(* A generator description that the measuring transformation can
   rewrite: emissions are edges whose [emits] flag is set. *)
type env_edge = { e : Automaton.edge; emits : bool }

type env_auto = {
  env_locations : Automaton.location list;
  env_edges : env_edge list;
  env_initial : int;
}

let plain_edge e = { e; emits = false }
let emit_edge e = { e; emits = true }

(* Emission updates [q0++] are appended by the caller; here edges carry
   only their timing structure and flag. *)
let env_automaton b ~scen_name (trigger : Eventmodel.t) q0 =
  let clock name = Network.Builder.clock b (scen_name ^ "_" ^ name) in
  let emit = Update.incr q0 in
  match trigger with
  | Eventmodel.Periodic { period; offset } ->
      let x = clock "x" in
      {
        env_locations =
          [
            loc "L0" ~invariant:(Guard.clock_le x offset);
            loc "L1" ~invariant:(Guard.clock_le x period);
          ];
        env_edges =
          [
            emit_edge
              (edge 0 1
                 ~guard:(Guard.clock_eq x offset)
                 ~update:(Update.seq [ emit; Update.reset x ]));
            emit_edge
              (edge 1 1
                 ~guard:(Guard.clock_eq x period)
                 ~update:(Update.seq [ emit; Update.reset x ]));
          ];
        env_initial = 0;
      }
  | Eventmodel.Periodic_unknown_offset { period } ->
      let x = clock "x" in
      {
        env_locations =
          [
            loc "L0" ~invariant:(Guard.clock_le x period);
            loc "L1" ~invariant:(Guard.clock_le x period);
          ];
        env_edges =
          [
            emit_edge
              (edge 0 1 ~update:(Update.seq [ emit; Update.reset x ]));
            emit_edge
              (edge 1 1
                 ~guard:(Guard.clock_eq x period)
                 ~update:(Update.seq [ emit; Update.reset x ]));
          ];
        env_initial = 0;
      }
  | Eventmodel.Sporadic { min_separation } ->
      let x = clock "x" in
      {
        env_locations = [ loc "L0"; loc "L1" ];
        env_edges =
          [
            emit_edge
              (edge 0 1 ~update:(Update.seq [ emit; Update.reset x ]));
            emit_edge
              (edge 1 1
                 ~guard:(Guard.clock_ge x min_separation)
                 ~update:(Update.seq [ emit; Update.reset x ]));
          ];
        env_initial = 0;
      }
  | Eventmodel.Periodic_jitter { period; jitter } ->
      let x = clock "x" in
      {
        env_locations =
          [
            loc "L0" ~invariant:(Guard.clock_le x period);
            loc "L1" ~invariant:(Guard.clock_le x jitter);
            loc "L2" ~invariant:(Guard.clock_le x period);
          ];
        env_edges =
          [
            (* phase: the first period starts anywhere in [0, P] *)
            plain_edge (edge 0 1 ~update:(Update.reset x));
            (* release within the jitter window *)
            emit_edge (edge 1 2 ~update:emit);
            plain_edge
              (edge 2 1
                 ~guard:(Guard.clock_eq x period)
                 ~update:(Update.reset x));
          ];
        env_initial = 0;
      }
  | Eventmodel.Bursty { period; jitter; min_separation } ->
      let x = clock "x" in
      let y = clock "y" in
      let backlog = (jitter / period) + 2 in
      let pending =
        Network.Builder.int_var b (scen_name ^ "_pending") ~lo:0 ~hi:backlog
          ~init:1
      in
      let snd =
        Network.Builder.int_var b (scen_name ^ "_snd") ~lo:0 ~hi:backlog
          ~init:0
      in
      let send_guard, send_reset =
        if min_separation > 0 then begin
          let z = clock "z" in
          ( Guard.conj (Guard.clock_gt z min_separation) (var_gt0 pending),
            Update.reset z )
        end
        else (var_gt0 pending, Update.none)
      in
      let tick src =
        plain_edge
          (edge src src
             ~guard:(Guard.clock_eq x period)
             ~update:(Update.seq [ Update.incr pending; Update.reset x ]))
      in
      let send src =
        emit_edge
          (edge src src ~guard:send_guard
             ~update:
               (Update.seq
                  [ Update.decr pending; emit; Update.incr snd; send_reset ]))
      in
      {
        env_locations =
          [
            loc "B0"
              ~invariant:
                (Guard.conj (Guard.clock_le x period) (Guard.clock_le y jitter));
            loc "B1"
              ~invariant:
                (Guard.conj (Guard.clock_le x period) (Guard.clock_le y period));
          ];
        env_edges =
          [
            tick 0;
            send 0;
            plain_edge
              (edge 0 1
                 ~guard:(Guard.conj (Guard.clock_eq y jitter) (var_gt0 snd))
                 ~update:(Update.seq [ Update.decr snd; Update.reset y ]));
            tick 1;
            send 1;
            plain_edge
              (edge 1 1
                 ~guard:(Guard.conj (Guard.clock_eq y period) (var_gt0 snd))
                 ~update:(Update.seq [ Update.decr snd; Update.reset y ]));
          ];
        env_initial = 0;
      }

(* ------------------------------------------------------------------ *)
(* Measuring variant (paper Figure 9, generalized)                     *)
(* ------------------------------------------------------------------ *)

(* [m := m < 0 ? m : m - 1] *)
let skip_update m =
  Update.set m Expr.(Ite (Cmp (Lt, Var m, Int 0), Var m, Sub (Var m, Int 1)))

type counter_pair = { n : Expr.var; m : Expr.var }

(* Self-loop pair receiving [chan] on location [l]: skip counted
   responses; on the tagged one run [hit] and go to [hit_dst]. *)
let response_edges l chan cp ~hit ~hit_dst =
  [
    edge l l
      ~guard:(Guard.data Expr.(Not (Cmp (Eq, Var cp.m, Int 0))))
      ~sync:(Automaton.Recv chan)
      ~update:(Update.seq [ skip_update cp.m; Update.decr cp.n ]);
    edge l hit_dst
      ~guard:(var_eq cp.m 0)
      ~sync:(Automaton.Recv chan)
      ~update:
        (Update.seq [ Update.set cp.m (Expr.Int (-1)); Update.decr cp.n; hit ]);
  ]

(* Rewrite a plain generator into its measuring variant. *)
let measuring_variant b ~scen_name (env : env_auto) ~obs_clock ~to_chan
    ~from_chan ~counter_bound =
  let int_var name ~lo ~hi ~init =
    Network.Builder.int_var b (scen_name ^ "_" ^ name) ~lo ~hi ~init
  in
  let cp_to =
    {
      n = int_var "n" ~lo:0 ~hi:counter_bound ~init:0;
      m = int_var "m" ~lo:(-1) ~hi:counter_bound ~init:(-1);
    }
  in
  let cp_from =
    Option.map
      (fun _ ->
        {
          n = int_var "nf" ~lo:0 ~hi:counter_bound ~init:0;
          m = int_var "mf" ~lo:(-1) ~hi:counter_bound ~init:(-1);
        })
      from_chan
  in
  let n_locs = List.length env.env_locations in
  let seen = n_locs in
  (* Locations at which a response can be observed: the forward closure,
     along the environment's own edges, of the emitting edges'
     destinations.  A response is only ever in flight after an emit, and
     the closure is forward-closed, so outside it the observer's receive
     edges can never fire and [ret] can never hold those values — declare
     it with exactly the closure's range and skip the dead edges. *)
  let observable =
    let reach = Array.make n_locs false in
    let rec visit l =
      if not reach.(l) then begin
        reach.(l) <- true;
        List.iter
          (fun { e; _ } -> if e.Automaton.src = l then visit e.Automaton.dst)
          env.env_edges
      end
    in
    List.iter
      (fun { e; emits } -> if emits then visit e.Automaton.dst)
      env.env_edges;
    reach
  in
  let observable_locs =
    List.filter (fun l -> observable.(l)) (List.init n_locs Fun.id)
  in
  let ret_lo, ret_hi =
    match observable_locs with
    | [] -> (0, 0) (* nothing emits: the observer is inert *)
    | l :: rest -> (l, List.fold_left max l rest)
  in
  let ret = int_var "ret" ~lo:ret_lo ~hi:ret_hi ~init:ret_lo in
  let bump_counts =
    Update.incr cp_to.n
    @ (match cp_from with Some cp -> Update.incr cp.n | None -> Update.none)
  in
  let tag_updates =
    Update.set cp_to.m (Expr.Var cp_to.n)
    @ (match cp_from with
      | Some cp -> Update.set cp.m (Expr.Var cp.n)
      | None -> Update.none)
    @ match from_chan with None -> Update.reset obs_clock | Some _ -> Update.none
  in
  let rewritten_edges =
    List.concat_map
      (fun { e; emits } ->
        if not emits then [ e ]
        else
          let plain =
            { e with Automaton.update = e.Automaton.update @ bump_counts }
          in
          let tagged =
            {
              e with
              Automaton.guard =
                Guard.conj e.Automaton.guard (var_eq cp_to.m (-1));
              update = tag_updates @ e.Automaton.update @ bump_counts;
            }
          in
          [ plain; tagged ])
      env.env_edges
  in
  let observation_edges =
    List.concat_map
      (fun l ->
        response_edges l to_chan cp_to
          ~hit:(Update.set ret (Expr.Int l))
          ~hit_dst:seen
        @
        match (from_chan, cp_from) with
        | Some fc, Some cp ->
            response_edges l fc cp ~hit:(Update.reset obs_clock) ~hit_dst:l
        | None, None -> []
        | Some _, None | None, Some _ -> assert false)
      observable_locs
  in
  let return_edges =
    List.map (fun l -> edge seen l ~guard:(var_eq ret l)) observable_locs
  in
  {
    env_locations =
      env.env_locations @ [ loc "seen" ~kind:Automaton.Committed ];
    env_edges =
      List.map plain_edge (rewritten_edges @ observation_edges @ return_edges);
    env_initial = env.env_initial;
  }

(* ------------------------------------------------------------------ *)
(* Putting the network together                                        *)
(* ------------------------------------------------------------------ *)

let generate ?measure (sys : Sysmodel.t) =
  (match Sysmodel.validate sys with
  | Ok () -> ()
  | Error msg -> raise (Network.Invalid_model msg));
  let b = Network.Builder.create () in
  let qb = sys.Sysmodel.queue_bound in
  (* pending counters for every step of every scenario *)
  let queues = Hashtbl.create 16 in
  List.iter
    (fun (s : Scenario.t) ->
      List.iteri
        (fun k _ ->
          let v =
            Network.Builder.int_var b
              (queue_name s.Scenario.name k)
              ~lo:0 ~hi:qb ~init:0
          in
          Hashtbl.add queues (s.Scenario.name, k) v)
        s.Scenario.steps)
    sys.Sysmodel.scenarios;
  let queue scen k = Hashtbl.find queues (scen, k) in
  (* the greediness channel *)
  let hurry = Network.Builder.channel b "hurry" Channel.Broadcast ~urgent:true in
  (* completion broadcasts for the observed steps *)
  let observed_steps =
    match measure with
    | None -> []
    | Some (scen, (r : Scenario.requirement)) -> (
        (scen, r.Scenario.to_step)
        :: (match r.Scenario.from_step with
           | Some f -> [ (scen, f) ]
           | None -> []))
  in
  let done_chans =
    List.map
      (fun (scen, k) ->
        ((scen, k), Network.Builder.channel b (done_name scen k) Channel.Broadcast ~urgent:false))
      observed_steps
  in
  let done_chan scen k = List.assoc_opt (scen, k) done_chans in
  (* resource automata *)
  List.iter
    (fun (r : Resource.t) ->
      let deployed = Sysmodel.jobs_on sys r in
      if deployed <> [] then begin
        let jobs =
          List.map
            (fun ((s : Scenario.t), k, st) ->
              let job_name =
                Printf.sprintf "%s_%s" s.Scenario.name (Scenario.step_name st)
              in
              let frames =
                match (r.Resource.policy, st, r.Resource.kind) with
                | ( Resource.Priority_segmented { frame_bytes },
                    Scenario.Transfer { bytes; _ },
                    Resource.Link { kbps } ) ->
                    let count = ((bytes + frame_bytes - 1) / frame_bytes) in
                    if count <= 1 then None
                    else begin
                      let fdur =
                        Units.us_of_bytes ~bytes:frame_bytes ~kbps
                      in
                      let fvar =
                        Network.Builder.int_var b
                          (Printf.sprintf "%s_fr_%s" r.Resource.name job_name)
                          ~lo:0 ~hi:count ~init:0
                      in
                      Some (count, fdur, fvar)
                    end
                | _, _, _ -> None
              in
              {
                job_name;
                duration = Sysmodel.step_duration_us sys st;
                band = s.Scenario.band;
                queue = queue s.Scenario.name k;
                next_queue =
                  (if k + 1 < Scenario.n_steps s then
                     Some (queue s.Scenario.name (k + 1))
                   else None);
                done_chan = done_chan s.Scenario.name k;
                frames;
              })
            deployed
        in
        let x = Network.Builder.clock b (r.Resource.name ^ "_x") in
        let locations, edges =
          match r.Resource.policy with
          | Resource.Nondet_nonpreemptive | Resource.Priority_nonpreemptive ->
              nonpreemptive_automaton ~policy:r.Resource.policy ~x jobs
          | Resource.Priority_segmented _ ->
              segmented_automaton ~policy:r.Resource.policy ~x jobs
          | Resource.Tdma { slot_us; cycle_us } ->
              let s = Network.Builder.clock b (r.Resource.name ^ "_s") in
              let max_d =
                List.fold_left (fun acc j -> max acc j.duration) 0 jobs
              in
              let blackout = cycle_us - slot_us in
              let d_max = max_d + (((max_d / slot_us) + 2) * blackout) in
              let d_var =
                Network.Builder.int_var b (r.Resource.name ^ "_D") ~lo:0
                  ~hi:d_max ~init:0
              in
              tdma_automaton ~policy:r.Resource.policy ~x ~s ~d_var
                ~slot:slot_us ~cycle:cycle_us jobs
          | Resource.Priority_preemptive ->
              let has_low = List.exists (fun j -> j.band = Scenario.Low) jobs in
              if not has_low then
                nonpreemptive_automaton ~policy:Resource.Priority_nonpreemptive
                  ~x jobs
              else begin
                (* the preemption clock only appears in pre_* locations,
                   which need a high band to preempt with; without one,
                   declaring it would leave a dead clock in the network *)
                let has_high =
                  List.exists (fun j -> j.band = Scenario.High) jobs
                in
                let y =
                  if has_high then
                    Network.Builder.clock b (r.Resource.name ^ "_y")
                  else x
                in
                let d_low_max =
                  List.fold_left
                    (fun acc j ->
                      if j.band = Scenario.Low then max acc j.duration else acc)
                    0 jobs
                in
                let sum_high =
                  List.fold_left
                    (fun acc j ->
                      if j.band = Scenario.High then acc + j.duration else acc)
                    0 jobs
                in
                let d_max = d_low_max + (8 * qb * sum_high) in
                let d_var =
                  Network.Builder.int_var b (r.Resource.name ^ "_D") ~lo:0
                    ~hi:d_max ~init:0
                in
                preemptive_automaton ~x ~y ~d_var jobs
              end
        in
        (* Claim and preemption edges are greedy (the paper's hurry!):
           exactly the resource edges without clock guards and without
           a completion sync. *)
        let edges =
          List.map
            (fun (e : Automaton.edge) ->
              if
                e.Automaton.sync = Automaton.NoSync
                && e.Automaton.guard.Guard.clocks = []
              then { e with Automaton.sync = Automaton.Send hurry }
              else e)
            edges
        in
        Network.Builder.add_automaton b
          (Automaton.make ~name:r.Resource.name ~locations ~edges ~initial:0)
      end)
    sys.Sysmodel.resources;
  (* environment automata *)
  let observer = ref None in
  List.iter
    (fun (s : Scenario.t) ->
      let scen_name = s.Scenario.name in
      let q0 = queue scen_name 0 in
      let env = env_automaton b ~scen_name s.Scenario.trigger q0 in
      let env =
        match measure with
        | Some (mscen, (r : Scenario.requirement)) when mscen = scen_name ->
            let obs_clock = Network.Builder.clock b (scen_name ^ "_yobs") in
            let to_chan =
              match done_chan scen_name r.Scenario.to_step with
              | Some c -> c
              | None -> assert false
            in
            let from_chan =
              Option.map
                (fun f ->
                  match done_chan scen_name f with
                  | Some c -> c
                  | None -> assert false)
                r.Scenario.from_step
            in
            let counter_bound =
              qb + Eventmodel.max_backlog s.Scenario.trigger
            in
            let menv =
              measuring_variant b ~scen_name env ~obs_clock ~to_chan ~from_chan
                ~counter_bound
            in
            let uncontended_us =
              Sysmodel.uncontended_us sys s ~from_step:r.Scenario.from_step
                ~to_step:r.Scenario.to_step
            in
            observer :=
              Some (scen_name, obs_clock, max 4 (4 * uncontended_us));
            menv
        | _ -> env
      in
      Network.Builder.add_automaton b
        (Automaton.make ~name:("ENV_" ^ scen_name)
           ~locations:env.env_locations
           ~edges:(List.map (fun ee -> ee.e) env.env_edges)
           ~initial:env.env_initial))
    sys.Sysmodel.scenarios;
  let net = Network.Builder.build b in
  match !observer with
  | None -> { net; observer = None; sys }
  | Some (scen_name, obs_clock, ceiling) ->
      (* the observer clock is only reset, so its constant is the sup's
         first extrapolation ceiling *)
      let net = Network.bump_clock_bound net obs_clock ceiling in
      let seen = Query.at net ~comp:("ENV_" ^ scen_name) ~loc:"seen" in
      { net; observer = Some { obs_clock; seen }; sys }

let queue_var t ~scenario ~step =
  Network.var_index t.net (queue_name scenario step)
