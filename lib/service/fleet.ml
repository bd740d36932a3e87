(* Fleet client: one logical rfd-svc/1 endpoint over many rfd-simd
   shards.

   Each query is keyed exactly the way the daemons key it (resolve the
   spec, digest the (scenario, seed, pulses) triple) and routed to the
   shard `Shard.owner` names. Around every shard sits a circuit breaker
   (closed -> open -> half-open): a transport error or drain refusal
   counts a failure, enough consecutive failures trip the breaker, and
   an open breaker parks the shard until a deterministic deadline —
   delays come from `Supervisor.backoff_delay` keyed by the shard's
   socket and trip count, never from a random source, so a replayed
   failure sequence opens and reopens at the same offsets every run.

   When the owner cannot serve (refusal or transport error), the query
   fails over through the remaining shards in ring order. That is
   correct, not merely available: results are a pure function of the
   key's scenario, so any daemon can compute the same miss, and the
   journals those misses land in merge trivially later. *)

module Supervisor = Rfd_engine.Supervisor
module Scenario = Rfd_experiment.Scenario

type breaker = Closed | Open | Half_open

let breaker_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type shard = {
  index : int;
  socket : string;
  mutable client : Client.t option;
  mutable state : breaker;
  mutable consecutive_failures : int;
  mutable trips : int;  (* consecutive open episodes; keys the backoff *)
  mutable open_until : float;  (* clock instant the breaker half-opens *)
  mutable served : int;
  mutable failures : int;
}

type t = {
  map : Shard.map;
  shards : shard array;
  timeout : float;
  connect_retry : float;
  threshold : int;  (* consecutive failures that trip the breaker *)
  backoff_base : float;
  now : unit -> float;
  memo : (int * Scenario.topology, Rfd_topology.Graph.t) Hashtbl.t;
}

let create ?(timeout = 300.) ?(connect_retry = 0.) ?(breaker_threshold = 1)
    ?(backoff_base = 0.25) ?(now = Unix.gettimeofday) sockets =
  if breaker_threshold < 1 then
    invalid_arg "Fleet.create: breaker_threshold must be >= 1";
  if backoff_base <= 0. then
    invalid_arg "Fleet.create: backoff_base must be positive";
  let map = Shard.make sockets in
  let shards =
    Array.of_list
      (List.mapi
         (fun index socket ->
           {
             index;
             socket;
             client = None;
             state = Closed;
             consecutive_failures = 0;
             trips = 0;
             open_until = neg_infinity;
             served = 0;
             failures = 0;
           })
         sockets)
  in
  {
    map;
    shards;
    timeout;
    connect_retry;
    threshold = breaker_threshold;
    backoff_base;
    now;
    memo = Hashtbl.create 8;
  }

let shard_count t = Shard.shard_count t.map

let drop_client shard =
  match shard.client with
  | None -> ()
  | Some c ->
      shard.client <- None;
      Client.close c

let close t = Array.iter drop_client t.shards

(* ------------------------------------------------------------------ *)
(* Breaker transitions                                                 *)

(* The open interval for the shard's n-th consecutive trip. Pure:
   (socket, n) -> seconds, via the supervisor's seeded jittered
   exponential — one backoff law across the whole codebase. *)
let open_delay t shard ~trips =
  Supervisor.backoff_delay ~key:shard.socket ~attempt:(trips + 1)
    ~base:t.backoff_base

let trip t shard =
  shard.trips <- shard.trips + 1;
  shard.state <- Open;
  shard.open_until <- t.now () +. open_delay t shard ~trips:shard.trips;
  drop_client shard

let record_failure t shard =
  shard.failures <- shard.failures + 1;
  shard.consecutive_failures <- shard.consecutive_failures + 1;
  drop_client shard;
  match shard.state with
  | Half_open ->
      (* A failed probe re-opens immediately, with a longer delay. *)
      trip t shard
  | Closed when shard.consecutive_failures >= t.threshold -> trip t shard
  | Closed | Open -> ()

let record_success shard =
  shard.served <- shard.served + 1;
  shard.consecutive_failures <- 0;
  shard.trips <- 0;
  shard.state <- Closed

(* Availability at this instant; an expired open breaker becomes a
   half-open probe opportunity as a side effect. *)
let usable t shard =
  match shard.state with
  | Closed | Half_open -> true
  | Open ->
      if t.now () >= shard.open_until then begin
        shard.state <- Half_open;
        true
      end
      else false

let breaker_state t i =
  let shard = t.shards.(i) in
  ignore (usable t shard : bool);
  shard.state

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

let client_of t shard =
  match shard.client with
  | Some c -> Ok c
  | None -> (
      match
        Client.connect ~timeout:t.timeout ~retry_for:t.connect_retry
          shard.socket
      with
      | c ->
          shard.client <- Some c;
          Ok c
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | exception Invalid_argument msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Keying: exactly the daemon's keying path, shared memo included.     *)

let key_of_spec t spec = Result.map snd (Protocol.resolve ~memo:t.memo spec)

let owner t key = Shard.owner_of_key t.map key

(* ------------------------------------------------------------------ *)
(* Health checks                                                       *)

let ping_shard t i =
  let shard = t.shards.(i) in
  if not (usable t shard) then false
  else
    match client_of t shard with
    | Error _ ->
        record_failure t shard;
        false
    | Ok c ->
        if Client.ping c then begin
          record_success shard;
          true
        end
        else begin
          record_failure t shard;
          false
        end

let ping t =
  (* Health-check every shard; true only when the whole fleet answers. *)
  Array.for_all (fun shard -> ping_shard t shard.index) t.shards

let stats t =
  Array.to_list
    (Array.map
       (fun shard ->
         let body =
           if not (usable t shard) then
             Error
               (Printf.sprintf "breaker %s until +%.2fs"
                  (breaker_to_string shard.state)
                  (shard.open_until -. t.now ()))
           else
             match client_of t shard with
             | Error _ as e ->
                 record_failure t shard;
                 e
             | Ok c -> (
                 match Client.stats c with
                 | Ok _ as ok ->
                     record_success shard;
                     ok
                 | Error _ as e ->
                     record_failure t shard;
                     e)
         in
         (shard.socket, body))
       t.shards)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(* What a response means for routing. Failing over is only correct when
   another shard could genuinely do better: transport failures, drains
   and shard-admission refusals qualify; invalid specs and journalled
   crash/timeout outcomes are properties of the query, not the shard. *)
type verdict =
  | Final of Protocol.response
  | Try_next of { error : string; breaker_failure : bool }

let attempt t shard ~attempts spec =
  match client_of t shard with
  | Error e -> (
      record_failure t shard;
      Try_next { error = e; breaker_failure = true })
  | Ok c -> (
      let probe_ok =
        match shard.state with Half_open -> Client.ping c | _ -> true
      in
      if not probe_ok then begin
        record_failure t shard;
        Try_next { error = "half-open probe failed"; breaker_failure = true }
      end
      else
        match Client.query ~attempts c spec with
        | Error e ->
            record_failure t shard;
            Try_next { error = e; breaker_failure = true }
        | Ok (Protocol.Refused { code = Protocol.Shutting_down; _ }) ->
            record_failure t shard;
            Try_next { error = "shard is draining"; breaker_failure = true }
        | Ok (Protocol.Refused { code = Protocol.Wrong_shard; _ }) ->
            (* The shard is healthy — it just will not serve this key.
               No breaker penalty; move along the ring. *)
            shard.consecutive_failures <- 0;
            Try_next
              { error = "shard refused the key"; breaker_failure = false }
        | Ok (Protocol.Refused { code = Protocol.Overloaded; _ } as r) ->
            (* Healthy but saturated (the client already retried with
               backoff). Another shard may have capacity to compute the
               same answer. *)
            shard.consecutive_failures <- 0;
            Try_next
              {
                error =
                  (match r with
                  | Protocol.Refused { body; _ } -> "overloaded: " ^ body
                  | _ -> "overloaded");
                breaker_failure = false;
              }
        | Ok response ->
            record_success shard;
            Final response)

let query ?(attempts = 5) t spec =
  match key_of_spec t spec with
  | Error msg ->
      (* Byte-compatible with a daemon's own refusal of the same spec:
         same elaboration, same message, no roundtrip spent. *)
      Ok
        (Protocol.Refused
           {
             code = Protocol.Invalid;
             body =
               Protocol.error_body ~code:Protocol.Invalid ~message:msg ();
           })
  | Ok key ->
      let rec go last = function
        | [] ->
            Error
              (Printf.sprintf "no shard could serve key %s: %s" key
                 (match last with Some e -> e | None -> "all breakers open"))
        | i :: rest ->
            let shard = t.shards.(i) in
            if not (usable t shard) then go last rest
            else (
              match attempt t shard ~attempts spec with
              | Final response -> Ok response
              | Try_next { error; _ } -> go (Some error) rest)
      in
      go None (Shard.candidates t.map key)

(* Per-shard counters for operational visibility and tests. *)
type shard_info = {
  shard_socket : string;
  shard_breaker : breaker;
  shard_served : int;
  shard_failures : int;
  shard_trips : int;
}

let info t =
  Array.to_list
    (Array.map
       (fun shard ->
         {
           shard_socket = shard.socket;
           shard_breaker = shard.state;
           shard_served = shard.served;
           shard_failures = shard.failures;
           shard_trips = shard.trips;
         })
       t.shards)
