(** The worker pool for batch jobs: [Unix.fork]-based, with per-job
    timeouts and crash isolation.

    Each job runs in its own forked child and reports its result back
    over a pipe (marshaled).  A child that diverges past the timeout
    is killed; a child that crashes (uncaught exception, fatal
    signal, [exit]) yields [Crashed] — in both cases every other
    job's result survives, which is the property a design-space sweep
    needs: one pathological candidate must not cost the batch.

    Children never exec: the job closure and its inputs are inherited
    through fork, so no argument serialization is needed; only
    results cross the pipe, and they must not contain closures.

    OCaml 5 forbids [Unix.fork] in a process that has ever spawned a
    domain, so the caller must not have spawned one; a job may, since
    it runs in its own child. *)

type 'b outcome =
  | Done of 'b
  | Crashed of string  (** uncaught exception or abnormal exit *)
  | Timed_out of float  (** killed after this many seconds *)

val default_jobs : unit -> int
(** The machine's available core count (at least 1). *)

val map :
  ?jobs:int ->
  ?timeout_s:float ->
  ?on_result:(int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** [map f xs] runs [f] on every element in forked workers, at most
    [jobs] (default {!default_jobs}) concurrently, and returns the
    outcomes in input order.  [timeout_s] is the per-job wall-clock
    limit (default: none).  [on_result] fires in the parent as each
    job settles (in completion order) — the streaming hook used to
    persist results the moment they exist.  Results are unmarshaled
    from the child, so ['b] must be closure-free data. *)
