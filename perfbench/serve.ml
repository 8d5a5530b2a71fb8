(* Workload serve-churn: the sharded Service under open-loop reads
   while a stream of POI updates lands.

   Deployment: 6x6 public and private grids, rmax 1, the test group,
   q_bits 24, behind Service.create ~shards:2 with lbq serve's defaults
   (queue depth 64, batch 1).

   One generator (the main domain) sends seeded Poisson round arrivals
   over a fixed population of tenant ids.  A round is stage1_query ->
   submit OT -> stage1_decode -> stage2_query ~reuse:true -> submit PIR
   to the cell's shard, timed from its due time to the PIR reply's
   arrival (ticket submit time plus Service.ticket_latency_s).  The
   generator never blocks: between due times it polls
   Service.ticket_reply and sleeps at most [poll_s].

   One Client holds one stage-2 instance per cell, built in a warm-up
   before timing, so the timed phase runs no prime search.  Every
   stage-2 decode and oracle check runs after timing.

   Beside the reads, a seeded Synth.churn stream is submitted at a fixed
   rate as single-cell Service.submit_update batches; every reply is
   checked against a per-epoch plaintext oracle built from the stream. *)

open Lbq_geo
open Lbq_core
open Common
module Service = Lbq_net.Service
module Counters = Lbq_metrics.Counters
module Gr = Lbq_pir.Gr
module Ot = Lbq_ot.Ot
module Z = Lbq_bignum.Z
module Schnorr = Lbq_group.Schnorr

type cfg = {
  light_rps : float;  (* the fixed light rate, below half of sustained_rps *)
  ladder : float array;  (* offered rates, ascending; holds light_rps *)
  limit_s : float;  (* p90 round latency a sustained rate must meet *)
}

let side = 6
let cell_m = 500.
let shards = 2
let queue_depth = 64
let batch = 1
let retry_budget = 8
let poll_s = 5e-4
let tenants = 32
let update_rps = 15.  (* churn stream rate *)
let lag_limit_s = 0.005  (* generator validity: p90 lateness *)
let busy_limit = 0.5  (* generator validity: busy fraction *)
let windows = 5
let setups_before = 3
let setups_warm = 3
let setups_after = 4
let min_probe_rounds = 100

exception Invalid_run of string

let params ~seed =
  Params.make ~q_bits:24 ~seed:("perfbench-serve/" ^ seed)
    ~group:(Schnorr.test_group ()) ~public_rows:side ~public_cols:side
    ~private_rows:side ~private_cols:side ~rmax:1 ()

type state =
  | Ot_wait
  | Pir_wait
  | Retry_ot of float
  | Retry_pir of float
  | Finished
  | Failed of string

type round = {
  due : float;
  tenant : int;
  pub : Grid.cell;
  idq : int;  (* the private cell the round must fetch *)
  mutable state : state;
  mutable sheds : int;
  mutable lag : float;
  mutable st1 : Client.stage1 option;
  mutable ot_q : Ot.query option;
  mutable ot_seq : int;
  mutable ot_tk : Service.ticket option;
  mutable st2 : Client.stage2 option;
  mutable pir_q : (Z.t * Z.t) option;
  mutable pir_seq : int;
  mutable pir_sub : float;
  mutable pir_tk : Service.ticket option;
  mutable done_at : float;
  mutable wrong : string option;
  mutable q_time : float;  (* Client.stage1_query *)
  mutable d_time : float;  (* Client.stage1_decode *)
}

type update = {
  u_cell : int;
  u_pois : Poi.t list;
  u_epoch : int;
  u_block : Z.t;  (* the cell's new CRT block, captured at submit *)
  u_call : float;
  u_ret : float;
  mutable u_visible : float;
}

type phase = {
  rounds : round array;  (* the rounds issued *)
  updates : update list;
  lags : float array;
  busy_frac : float;
  submits : float array;  (* Service.submit call times *)
  queue_len : float array array;  (* per shard, sampled at submits *)
  sheds : int;
  minor_words : float;  (* allocated by the generator domain *)
  aborted : bool;  (* a probe that stopped issuing once it had failed *)
}

type env = {
  cfg : cfg;
  seed : string;
  svc : Service.t;
  server : Server.t;
  client : Client.t;
  seqs : int array;  (* next exchange seq per tenant *)
  pubs : Grid.cell array;  (* every public cell *)
  pub_idq : int array;  (* public cell -> associated private cell *)
  churn_stream : Poi_file.update array;
  mutable churn_next : int;
  mutable all_updates : update list;  (* newest first *)
}

let next_seq env tenant =
  let s = env.seqs.(tenant) in
  env.seqs.(tenant) <- s + 1;
  s

let finished p =
  List.filter (fun r -> r.state = Finished) (Array.to_list p.rounds)

let failed p =
  Array.fold_left
    (fun k r -> match r.state with Failed _ -> k + 1 | _ -> k)
    0 p.rounds

let latencies rounds =
  Array.of_list (List.map (fun r -> r.done_at -. r.due) rounds)

(* The phase cut into [windows] equal spans of time from [t0] to [t1]:
   the median of each span's (time, value) samples, and the fastest of
   those medians.  The host's speed swings last seconds, and the
   fastest span filters them as the fastest repeat does elsewhere. *)
let fastest_window ~t0 ~t1 samples =
  let bins = Array.make windows [] in
  List.iter
    (fun (t, v) ->
      let w = int_of_float (float_of_int windows *. (t -. t0) /. (t1 -. t0)) in
      let w = max 0 (min (windows - 1) w) in
      bins.(w) <- v :: bins.(w))
    samples;
  Array.fold_left
    (fun best b ->
      if b = [] then best else Float.min best (median (Array.of_list b)))
    infinity bins

(* Take the next update of the seeded churn stream and submit it as a
   single-cell batch; the epoch it returns must be the next one. *)
let submit_update env =
  if env.churn_next >= Array.length env.churn_stream then
    raise (Invalid_run "churn stream exhausted");
  let u = env.churn_stream.(env.churn_next) in
  env.churn_next <- env.churn_next + 1;
  let cell = u.Poi_file.cell and pois = u.Poi_file.pois in
  let expect = Service.epoch env.svc + 1 in
  let t0 = now () in
  let epoch = Service.submit_update env.svc [ (cell, pois) ] in
  let t1 = now () in
  check (epoch = expect) "submit_update returned epoch %d, expected %d" epoch
    expect;
  let up =
    {
      u_cell = cell; u_pois = pois; u_epoch = epoch;
      u_block = Z.of_bytes_be (Server.cell_ciphertext env.server cell);
      u_call = t0; u_ret = t1; u_visible = nan;
    }
  in
  env.all_updates <- up :: env.all_updates;
  up

(* ------------------------------------------------------------------ *)
(* One open-loop phase                                                  *)
(* ------------------------------------------------------------------ *)

(* Drive one open-loop phase: [n] Poisson arrivals at [rate] from a
   schedule seeded by [label], plus the update stream at
   its fixed rate until the last arrival.  [abort] stops issuing as soon
   as the phase cannot pass (ladder probes above capacity): at the first
   shed or failure, or once more than a tenth of its rounds are later
   than the latency limit.  [trace] samples the shard queue lengths. *)
let run_phase env ~label ~rate ~n ~abort ~trace =
  let sched = rng ~seed:env.seed ("arrivals/" ^ label) in
  let t_start = now () +. 0.02 in
  let due = ref t_start in
  let rounds =
    Array.init n (fun _ ->
        due := !due +. exponential sched ~rate;
        let tenant = Random.State.int sched tenants in
        let p = Random.State.int sched (Array.length env.pubs) in
        {
          due = !due; tenant; pub = env.pubs.(p); idq = env.pub_idq.(p);
          state = Ot_wait; sheds = 0; lag = 0.; st1 = None; ot_q = None;
          ot_seq = 0; ot_tk = None; st2 = None; pir_q = None; pir_seq = 0;
          pir_sub = 0.; pir_tk = None; done_at = 0.; wrong = None;
          q_time = 0.; d_time = 0.;
        })
  in
  let deadline = (if n = 0 then t_start else rounds.(n - 1).due) +. 30. in
  let submits = ref [] and sheds = ref 0 in
  let qlen = Array.make shards [] in
  let aborted = ref false in
  let fail r why =
    r.state <- Failed why;
    if abort then aborted := true
  in
  let wrong r why =
    r.wrong <- Some why;
    fail r "wrong reply"
  in
  (* Submit (or resubmit after a shed) one exchange of round [r]. *)
  let submit r request ~seq ~on_accept ~on_shed =
    let shard =
      match request with
      | Service.Pir_query { shard; _ } -> shard
      | Service.Ot_query _ -> r.tenant mod shards
    in
    let t0 = now () in
    let outcome = Service.submit env.svc ~tenant:r.tenant ~seq request in
    submits := (now () -. t0) :: !submits;
    if trace then
      qlen.(shard) <-
        float_of_int (Service.queue_length env.svc shard) :: qlen.(shard);
    match outcome with
    | Service.Accepted tk -> on_accept t0 tk
    | Service.Shed { retry_after_s } ->
      incr sheds;
      r.sheds <- r.sheds + 1;
      if abort || r.sheds >= retry_budget then
        fail r "shed past the retry budget"
      else on_shed (now () +. retry_after_s)
  in
  let submit_ot r =
    submit r (Service.Ot_query (Option.get r.ot_q)) ~seq:r.ot_seq
      ~on_accept:(fun _ tk ->
        r.ot_tk <- Some tk;
        r.state <- Ot_wait)
      ~on_shed:(fun at -> r.state <- Retry_ot at)
  in
  let submit_pir r =
    let n, g = Option.get r.pir_q in
    let shard = Server.shard_of_cell ~shards r.idq in
    submit r (Service.Pir_query { shard; n; g }) ~seq:r.pir_seq
      ~on_accept:(fun t0 tk ->
        r.pir_sub <- t0;
        r.pir_tk <- Some tk;
        r.state <- Pir_wait)
      ~on_shed:(fun at -> r.state <- Retry_pir at)
  in
  let start r t =
    r.lag <- t -. r.due;
    let (st1, q), dt = time (fun () -> Client.stage1_query env.client r.pub) in
    r.q_time <- dt;
    r.st1 <- Some st1;
    r.ot_q <- Some q;
    r.ot_seq <- next_seq env r.tenant;
    submit_ot r
  in
  (* The OT reply arrived: check the credential against the oracle, then
     send the stage-2 query. *)
  let ot_reply r resp =
    match
      time (fun () -> Client.stage1_decode env.client (Option.get r.st1) resp)
    with
    | exception Client.Protocol_error msg -> wrong r ("OT decode: " ^ msg)
    | cred, dt ->
      r.d_time <- dt;
      let idq = Client.credential_idq cred in
      if idq <> r.idq then
        wrong r
          (Printf.sprintf "OT credential names cell %d, expected %d" idq r.idq)
      else if
        not
          (String.equal (Client.credential_key cred)
             (Server.trusted_cell_key env.server idq))
      then wrong r (Printf.sprintf "OT credential key of cell %d is wrong" idq)
      else begin
        let st2, nq = Client.stage2_query ~reuse:true env.client cred in
        r.st2 <- Some st2;
        r.pir_q <- Some nq;
        r.pir_seq <- next_seq env r.tenant;
        submit_pir r
      end
  in
  (* One poll of an in-flight round; true when it made progress. *)
  let advance r t =
    let reply tk = Option.bind tk Service.ticket_reply in
    match r.state with
    | Retry_ot at when t >= at -> submit_ot r; true
    | Retry_pir at when t >= at -> submit_pir r; true
    | Ot_wait -> (
      match reply r.ot_tk with
      | None -> false
      | Some (Service.Ot_reply (Ok resp)) -> ot_reply r resp; true
      | Some (Service.Ot_reply (Error rej)) ->
        wrong r ("OT rejected: " ^ Server.rejection_message rej);
        true
      | Some (Service.Pir_reply _) -> wrong r "PIR reply to an OT ticket"; true)
    | Pir_wait -> (
      match reply r.pir_tk with
      | None -> false
      | Some (Service.Pir_reply (Ok _)) ->
        r.done_at <-
          r.pir_sub +. Service.ticket_latency_s (Option.get r.pir_tk);
        r.state <- Finished;
        true
      | Some (Service.Pir_reply (Error rej)) ->
        wrong r ("PIR rejected: " ^ Server.rejection_message rej);
        true
      | Some (Service.Ot_reply _) -> wrong r "OT reply to a PIR ticket"; true)
    | Retry_ot _ | Retry_pir _ | Finished | Failed _ -> false
  in
  (* The churn stream: due every 1/update_rps from the first arrival. *)
  let upd_period = 1. /. update_rps in
  let upd_due = ref (t_start +. (0.5 *. upd_period)) in
  let phase_updates = ref [] and pending = ref [] in
  let inflight = ref [] and next = ref 0 and late = ref 0 in
  let slept = ref 0. in
  let rec loop () =
    let t = now () in
    let progressed = ref false in
    while !next < n && (not !aborted) && rounds.(!next).due <= t do
      let r = rounds.(!next) in
      incr next;
      start r (now ());
      inflight := r :: !inflight;
      progressed := true
    done;
    let issuing = !next < n && not !aborted in
    while issuing && !upd_due <= t do
      let up = submit_update env in
      phase_updates := up :: !phase_updates;
      pending := up :: !pending;
      upd_due := !upd_due +. upd_period;
      progressed := true
    done;
    let t = now () in
    inflight :=
      List.filter
        (fun r ->
          if advance r t then progressed := true;
          match r.state with
          | Finished ->
            if r.done_at -. r.due > env.cfg.limit_s then incr late;
            false
          | Failed _ -> false
          | _ -> true)
        !inflight;
    if abort && not !aborted then begin
      let overdue =
        List.fold_left
          (fun k r -> if t -. r.due > env.cfg.limit_s then k + 1 else k)
          0 !inflight
      in
      if 10 * (!late + overdue) > n then aborted := true
    end;
    if !pending <> [] then begin
      let applied = Service.applied_epoch env.svc in
      let t = now () in
      pending :=
        List.filter
          (fun u ->
            if u.u_epoch <= applied then (u.u_visible <- t; false) else true)
          !pending
    end;
    let t = now () in
    if t > deadline then
      List.iter
        (fun r -> fail r "no reply 30 s after the last arrival")
        !inflight
    else if issuing || !inflight <> [] || !pending <> [] then begin
      if not !progressed then begin
        let wake =
          Float.min (t +. poll_s)
            (if issuing then Float.min rounds.(!next).due !upd_due
             else infinity)
        in
        if wake > t then begin
          Unix.sleepf (wake -. t);
          slept := !slept +. (now () -. t)
        end
      end;
      loop ()
    end
  in
  let wall0 = now () and gc0 = Gc.minor_words () in
  loop ();
  let wall = now () -. wall0 in
  let minor_words = Gc.minor_words () -. gc0 in
  (* Rounds never issued after an abort count as not attempted. *)
  let rounds = Array.sub rounds 0 !next in
  {
    rounds;
    updates = List.rev !phase_updates;
    lags = Array.map (fun r -> r.lag) rounds;
    busy_frac = (wall -. !slept) /. wall;
    submits = Array.of_list !submits;
    queue_len = Array.map Array.of_list qlen;
    sheds = !sheds;
    minor_words;
    aborted = !aborted;
  }

(* Does the offered rate hold: no failure or shed, the generator on
   time, p90 within the limit, and no growing backlog (the last third
   of the rounds, by due time, within the limit at the median)? *)
let sustained env p =
  let lat = latencies (finished p) in
  let n = Array.length lat in
  n > 0
  && (not p.aborted)
  && p.sheds = 0
  && n = Array.length p.rounds
  && quantile p.lags 0.9 <= lag_limit_s
  && quantile lat 0.9 <= env.cfg.limit_s
  &&
  let third = max 1 (n / 3) in
  median (Array.sub lat (n - third) third) <= env.cfg.limit_s

(* The generator must keep its schedule, or the run measures it. *)
let check_generator p =
  let lag = quantile p.lags 0.9 in
  if lag > lag_limit_s then
    raise
      (Invalid_run
         (Printf.sprintf "generator ran late: lag p90 %.4f s > %.4f s" lag
            lag_limit_s));
  if p.busy_frac > busy_limit then
    raise
      (Invalid_run
         (Printf.sprintf "generator busy %.2f > %.2f" p.busy_frac
            busy_limit))

(* The highest rung of the frozen ladder that holds: a binary search
   above the light rate (which the light phase already tried), probing
   each rung for [probe_s] seconds and at least [min_probe_rounds]. *)
let search_ladder env ~light ~probe_s =
  let ladder = env.cfg.ladder in
  let li =
    match
      List.find_opt
        (fun i -> ladder.(i) = env.cfg.light_rps)
        (List.init (Array.length ladder) (fun i -> i))
    with
    | Some i -> i
    | None -> invalid_arg "the ladder must hold the light rate"
  in
  let probes = ref [] in
  let probe i =
    let rate = ladder.(i) in
    let n = max min_probe_rounds (int_of_float (rate *. probe_s)) in
    let p =
      run_phase env ~label:(Printf.sprintf "rung-%g" rate) ~rate ~n
        ~abort:true ~trace:false
    in
    probes := (rate, p) :: !probes;
    sustained env p
  in
  let lo = ref (if sustained env light then li else -1) in
  let hi = ref (if !lo < 0 then li else Array.length ladder) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if probe mid then lo := mid else hi := mid
  done;
  if !lo < 0 then raise (Invalid_run "no rung of the ladder is sustained");
  (ladder.(!lo), List.rev !probes)

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

(* Server.create + Service.create on the same inputs: the deployment,
   its set-up time and its Server.create time. *)
let deploy ~metrics ~ot_seed params ~area pois =
  let t0 = now () in
  let server = Server.create ~metrics params ~area pois in
  let t1 = now () in
  let svc = Service.create ~ot_seed ~queue_depth ~batch ~shards server in
  (server, svc, now () -. t0, t1 -. t0)

(* [k] more deployments, each shut down at once: their set-up times and
   Server.create times. *)
let redeploy k ~ot_seed params ~area pois =
  List.init k (fun _ ->
      let metrics = Counters.create () in
      let _, svc, dt, create = deploy ~metrics ~ot_seed params ~area pois in
      Service.shutdown svc;
      Gc.full_major ();
      (dt, create))

(* The POIs a PIR reply decodes to, or None when the decode fails: a
   wrong reply usually fails the cell cipher's authentication. *)
let decode client st2 z =
  try Some (Client.stage2_decode client st2 z)
  with Client.Protocol_error _ -> None

let decodes_to pois expected =
  match pois with Some p -> same_pois p expected | None -> false

(* Warm-up: one stage-2 instance per cell, built, served on the own
   shards and decoded once.  Returns the instance build times. *)
let warm_up client server own oracle by_idq =
  Array.to_list
    (Array.mapi
       (fun idq pubs ->
         let st1, q = Client.stage1_query client pubs.(0) in
         let cred =
           try Client.stage1_decode client st1 (Server.ot_respond server q)
           with Client.Protocol_error msg ->
             raise (Check_failed ("serve warm-up: OT decode: " ^ msg))
         in
         check
           (Client.credential_idq cred = idq)
           "serve warm-up: credential names cell %d, expected %d"
           (Client.credential_idq cred) idq;
         let (st2, (n, g)), dt =
           time (fun () -> Client.stage2_query ~reuse:true client cred)
         in
         let d = Server.shard_of_cell ~shards idq in
         (match Server.pir_respond_shard_checked server own.(d) ~n ~g with
          | Error rej ->
            check false "serve warm-up: %s" (Server.rejection_message rej)
          | Ok ge ->
            check
              (decodes_to (decode client st2 ge) oracle.(idq))
              "serve warm-up: cell %d decodes wrong" idq);
         dt)
       by_idq)

(* ------------------------------------------------------------------ *)
(* After timing: the oracle gate                                        *)
(* ------------------------------------------------------------------ *)

let pir_value r =
  match Option.bind r.pir_tk Service.ticket_reply with
  | Some (Service.Pir_reply (Ok z)) -> z
  | _ -> assert false

(* Decode every PIR reply (identical replies of one cell once) and
   compare it with the plaintext oracle at the reply's ticket epoch.
   Two domains split the cells, so no instance is shared.  Returns the
   reply count and the decode times. *)
let check_decodes client rounds oracle_at =
  let part k =
    let memo = Hashtbl.create 64 in
    List.filter_map
      (fun r ->
        if r.idq mod 2 <> k then None
        else begin
          let z = pir_value r in
          let key = (r.idq, Z.to_bytes_be z) in
          let pois, dt =
            match Hashtbl.find_opt memo key with
            | Some p -> (p, None)
            | None ->
              let p, dt =
                time (fun () -> decode client (Option.get r.st2) z)
              in
              Hashtbl.add memo key p;
              (p, Some dt)
          in
          let epoch = Service.ticket_epoch (Option.get r.pir_tk) in
          Some (decodes_to pois (oracle_at r.idq epoch), r.idq, epoch, dt)
        end)
      rounds
  in
  let other = Domain.spawn (fun () -> part 1) in
  let checked = part 0 @ Domain.join other in
  List.iter
    (fun (ok, idq, epoch, _) ->
      check ok "serve: cell %d at epoch %d decodes to the wrong POIs" idq
        epoch)
    checked;
  ( List.length checked,
    Array.of_list (List.filter_map (fun (_, _, _, d) -> d) checked) )

(* Wire bytes (up, down) of a finished round, from the real encodings. *)
let round_wire group r =
  let ot_resp =
    match Option.bind r.ot_tk Service.ticket_reply with
    | Some (Service.Ot_reply (Ok o)) -> o
    | _ -> assert false
  in
  let n, _ = Option.get r.pir_q in
  ( String.length (Wire.ot_query_encode group (Option.get r.ot_q))
    + String.length (Wire.pir_query_encode (Option.get r.pir_q)),
    String.length (Wire.ot_response_encode group ot_resp)
    + String.length (Wire.pir_response_encode ~n (pir_value r)) )

(* PIR tickets replayed on the benchmark's own shards, stepped through
   the update stream in epoch order.  Every served PIR ticket adds its
   shard's predicted multiplication count at its epoch to the expected
   total; the tickets of [replayed] rounds are also answered again, and
   must match the reply and the prediction exactly. *)
type pir_replay = {
  expected_mults : int;
  busy : float list;  (* replayed respond times *)
  waits : float list;  (* exchange time minus busy time *)
  mults : int list;
  predicted : int list;
}

let replay_pir ~server ~metrics ~own ~updates ~all_rounds ~replayed =
  let pred = Array.map Gr.Server.predicted_mults own in
  let ups = Array.of_list updates in
  let epoch_now = ref 0 in
  let step_to e =
    while !epoch_now < e do
      let u = ups.(!epoch_now) in
      let d = Server.shard_of_cell ~shards u.u_cell in
      Gr.Server.update_block own.(d) ~idx:(u.u_cell / shards) ~block:u.u_block;
      pred.(d) <- Gr.Server.predicted_mults own.(d);
      incr epoch_now
    done
  in
  let epoch r = Service.ticket_epoch (Option.get r.pir_tk) in
  let by_epoch =
    List.stable_sort (fun a b -> compare (epoch a) (epoch b)) all_rounds
  in
  let acc =
    ref
      { expected_mults = 0; busy = []; waits = []; mults = []; predicted = [] }
  in
  let mults () = (Counters.snapshot metrics).Counters.server_mult in
  List.iter
    (fun r ->
      step_to (epoch r);
      let shard = Server.shard_of_cell ~shards r.idq in
      let a = !acc in
      acc := { a with expected_mults = a.expected_mults + pred.(shard) };
      if List.memq r replayed then begin
        let n, g = Option.get r.pir_q in
        let c0 = mults () in
        let reply, dt =
          time (fun () ->
              Server.pir_respond_shard_checked server own.(shard) ~n ~g)
        in
        let used = mults () - c0 in
        check (used = pred.(shard))
          "serve: replayed respond took %d multiplications, predicted %d" used
          pred.(shard);
        (match reply with
         | Ok z ->
           check (Z.equal z (pir_value r))
             "serve: PIR reply differs from the replay at its epoch"
         | Error _ -> check false "serve: replay rejected a served query");
        let a = !acc in
        acc :=
          {
            a with
            busy = dt :: a.busy;
            waits =
              (Service.ticket_latency_s (Option.get r.pir_tk) -. dt) :: a.waits;
            mults = used :: a.mults;
            predicted = pred.(shard) :: a.predicted;
          }
      end)
    by_epoch;
  step_to (Array.length ups);
  !acc

(* OT tickets of [rounds] replayed through Service.respond_reference
   (Server.ot_respond_checked on the ticket's forked blinding stream):
   the reply must match; returns busy times and queue waits. *)
let replay_ot svc rounds =
  let same x y =
    Array.length x = Array.length y
    && Array.for_all2
         (fun (a1, a2) (b1, b2) -> Z.equal a1 b1 && Z.equal a2 b2)
         x y
  in
  List.split
    (List.map
       (fun r ->
         let tk = Option.get r.ot_tk in
         let reply, dt =
           time (fun () ->
               Service.respond_reference svc ~tenant:r.tenant ~seq:r.ot_seq
                 (Service.ticket_request tk))
         in
         (match (reply, Service.ticket_reply tk) with
          | Service.Ot_reply (Ok a), Some (Service.Ot_reply (Ok b)) ->
            check
              (same a.Ot.rows b.Ot.rows && same a.Ot.cols b.Ot.cols)
              "serve: OT reply differs from respond_reference"
          | _ -> check false "serve: OT replay failed");
         (dt, Service.ticket_latency_s tk -. dt))
       rounds)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

let run ~cfg ~seed ~seconds ~trace =
  let params = params ~seed in
  let area = square (cell_m *. float_of_int side) in
  let oracle, pois =
    layout (rng ~seed "serve-layout") ~area ~rows:side ~cols:side
      ~rmax:params.Params.rmax
  in
  let cells = Array.length oracle in
  let metrics = Counters.create () in
  (* Set-up: [setups_before] deployments, of which the last serves,
     [setups_warm] more after the warm-up and [setups_after] after
     timing; setup_s is the fastest, the host's speed swings lasting
     seconds. *)
  let ot_seed = "perfbench-serve-ot/" ^ seed in
  let before = redeploy (setups_before - 1) ~ot_seed params ~area pois in
  let server, svc, setup_dt, create_dt =
    deploy ~metrics ~ot_seed params ~area pois
  in
  Gc.full_major ();
  let info = Server.public_info server in
  let partition = Server.partition server in
  for idq = 0 to cells - 1 do
    check
      (same_pois oracle.(idq) (Server.trusted_cell_pois server idq))
      "serve: cell %d partition differs from the layout" idq
  done;
  (* The benchmark's own shards, striped like the Service's: the
     exact-count oracle and the traced replays run on them. *)
  let own = Server.pir_shards server ~count:shards in
  let blocks0 =
    Array.init cells (fun i -> Z.of_bytes_be (Server.cell_ciphertext server i))
  in
  let by_idq = public_cells_by_idq info partition in
  let pubs = Array.concat (Array.to_list by_idq) in
  let client_metrics = Counters.create () in
  let client =
    Client.create ~metrics:client_metrics
      ~seed:("perfbench-serve-user/" ^ seed) ~cache_cap:cells info
  in
  let nt0 = Counters.snapshot client_metrics in
  let instance_times, warmup_s =
    time (fun () -> warm_up client server own oracle by_idq)
  in
  let nt1 = Counters.snapshot client_metrics in
  let warm = redeploy setups_warm ~ot_seed params ~area pois in
  let env =
    {
      cfg; seed; svc; server; client; pubs;
      pub_idq =
        Array.map (Grid.associate info.Server.public_grid partition) pubs;
      seqs = Array.make tenants 0;
      churn_stream =
        Array.of_list
          (Synth.churn ~seed:("perfbench-serve-churn/" ^ seed) ~partition
             ~steps:4000 ());
      churn_next = 0;
      all_updates = [];
    }
  in
  let sv0 = Counters.snapshot metrics in
  let cl0 = Counters.snapshot client_metrics in
  (* Timed: the light phase; the traced run adds a traced repeat of the
     light schedule and the ladder search. *)
  let light_phase ~trace =
    run_phase env ~label:"light" ~rate:cfg.light_rps
      ~n:(max min_probe_rounds (int_of_float (cfg.light_rps *. 0.5 *. seconds)))
      ~abort:false ~trace
  in
  let light = light_phase ~trace:false in
  check_generator light;
  let traced = if trace then Some (light_phase ~trace:true) else None in
  let sustained_rps, probes =
    if trace then search_ladder env ~light ~probe_s:(0.075 *. seconds)
    else (nan, [])
  in
  Service.shutdown svc;
  let sv1 = Counters.snapshot metrics in
  let cl1 = Counters.snapshot client_metrics in
  (* ---------------- after timing: the oracle gate ---------------- *)
  let phases =
    (light :: List.map snd probes) @ Option.to_list traced
  in
  let all_rounds = List.concat_map (fun p -> Array.to_list p.rounds) phases in
  (match List.find_map (fun r -> r.wrong) all_rounds with
   | Some why -> check false "serve: wrong reply: %s" why
   | None -> ());
  let updates = List.rev env.all_updates in
  (* Per-epoch plaintext oracle: cell contents after the first [e]
     updates of the stream. *)
  let versions = Array.map (fun p -> [ (0, p) ]) oracle in
  List.iter
    (fun u ->
      versions.(u.u_cell) <- (u.u_epoch, u.u_pois) :: versions.(u.u_cell))
    updates;
  let oracle_at idq epoch =
    snd (List.find (fun (e, _) -> e <= epoch) versions.(idq))
  in
  let done_rounds = List.concat_map finished phases in
  let replies, decode_times = check_decodes client done_rounds oracle_at in
  (* Exact counts over the timed phases. *)
  let served tk = Option.bind tk Service.ticket_reply <> None in
  let ot_served =
    List.length (List.filter (fun r -> served r.ot_tk) all_rounds)
  in
  let pir_served = List.length done_rounds in
  let delta f = f sv1 - f sv0 in
  let ot_exps = 3 * (params.Params.public_rows + params.Params.public_cols) in
  check
    (delta (fun s -> s.Counters.server_exp) = ot_exps * ot_served)
    "serve: OT responds took %d exponentiations, expected %d x %d"
    (delta (fun s -> s.Counters.server_exp)) ot_exps ot_served;
  check
    (delta (fun s -> s.Counters.served) = ot_served + pir_served)
    "serve: the service counted %d served, the generator saw %d"
    (delta (fun s -> s.Counters.served)) (ot_served + pir_served);
  let n_updates = List.length updates in
  check
    (delta (fun s -> s.Counters.update_blocks) = n_updates)
    "serve: %d update blocks counted, %d submitted"
    (delta (fun s -> s.Counters.update_blocks)) n_updates;
  check
    (delta (fun s -> s.Counters.epoch_bumps) = n_updates)
    "serve: %d epoch bumps counted, %d single-cell batches submitted"
    (delta (fun s -> s.Counters.epoch_bumps)) n_updates;
  let traced_done = match traced with Some p -> finished p | None -> [] in
  let pr =
    replay_pir ~server ~metrics ~own ~updates ~all_rounds:done_rounds
      ~replayed:traced_done
  in
  check
    (delta (fun s -> s.Counters.server_mult) = pr.expected_mults)
    "serve: PIR responds took %d multiplications, predicted %d"
    (delta (fun s -> s.Counters.server_mult)) pr.expected_mults;
  let setups =
    before @ [ (setup_dt, create_dt) ] @ warm
    @ redeploy setups_after ~ot_seed params ~area pois
  in
  let fastest f = List.fold_left (fun a x -> Float.min a (f x)) infinity setups in
  (* ---------------- results ---------------- *)
  let group = params.Params.group in
  let light_done = finished light in
  let lat = latencies light_done in
  check (Array.length lat > 0) "serve: no round finished";
  let attempted = Array.length light.rounds in
  let visible =
    Array.of_list (List.map (fun u -> u.u_visible -. u.u_call) light.updates)
  in
  let t0 = light.rounds.(0).due
  and t1 = light.rounds.(Array.length light.rounds - 1).due in
  let ladder_note =
    if not trace then "run by the traced run"
    else
      String.concat " "
        (List.map
           (fun (rate, p) ->
             let l = latencies (finished p) in
             Printf.sprintf "%g/s:%s(p90 %.3f n %d)" rate
               (if sustained env p then "ok" else "no")
               (if Array.length l > 0 then quantile l 0.9 else nan)
               (Array.length l))
           probes)
  in
  let notes =
    [
      ( "deployment",
        Printf.sprintf
          "%dx%d grids, rmax 1, test group, q_bits 24, %d shards, queue \
           depth %d, batch %d" side side shards queue_depth batch );
      ( "setup_s",
        Printf.sprintf
          "fastest of %d Server.create + Service.create, median %.4f s"
          (List.length setups)
          (median (Array.of_list (List.map fst setups))) );
      ( "light phase",
        Printf.sprintf "%d rounds at %g/s offered, %d finished, %d failed"
          attempted cfg.light_rps (List.length light_done) (failed light) );
      ( "round_p50_s, update_visible_p50_s",
        Printf.sprintf
          "median of the fastest of %d equal time windows of the light \
           phase; plain medians %.5f s, %.5f s" windows (median lat)
          (median visible) );
      ( "tail.round_p90_s",
        Printf.sprintf "%d samples, %d beyond p90" (Array.length lat)
          (beyond lat 0.9) );
      ( "tail.update_visible_p90_s",
        Printf.sprintf "%d samples, %d beyond p90" (Array.length visible)
          (beyond visible 0.9) );
      ( "loadgen",
        Printf.sprintf
          "lag p90 %.5f s, busy %.3f (valid: lag <= %g s, busy <= %g)"
          (quantile light.lags 0.9) light.busy_frac lag_limit_s
          busy_limit );
      ("ladder", ladder_note);
      ( "decodes",
        Printf.sprintf "%d replies checked, %d decoded" replies
          (Array.length decode_times) );
    ]
  in
  match traced with
  | None ->
    let bytes =
      List.map
        (fun r ->
          let up, down = round_wire group r in
          float_of_int (up + down))
        light_done
    in
    ( [
        m "setup_s" "s" (fastest fst);
        m "ok_frac" "ratio"
          (float_of_int (List.length light_done) /. float_of_int attempted);
        m "round_p50_s" "s"
          (fastest_window ~t0 ~t1
             (List.map (fun r -> (r.due, r.done_at -. r.due)) light_done));
        m "round_bytes" "B" (mean (Array.of_list bytes));
        m "update_visible_p50_s" "s"
          (fastest_window ~t0 ~t1
             (List.map
                (fun u -> (u.u_call, u.u_visible -. u.u_call))
                light.updates));
      ],
      notes, attempted, failed light )
  | Some tp ->
    check_generator tp;
    let tlat = latencies traced_done in
    let ot_busy, ot_wait = replay_ot svc traced_done in
    let per f = Array.of_list (List.map f traced_done) in
    let exchange tk r = Service.ticket_latency_s (Option.get (tk r)) in
    let shard_served d =
      List.fold_left
        (fun k r ->
          k
          + Bool.to_int (r.tenant mod shards = d)
          + Bool.to_int (Server.shard_of_cell ~shards r.idq = d))
        0 traced_done
    in
    let wire = List.map (round_wire group) traced_done in
    (* The update path replayed on shard 0's own tree and schedule, from
       the epoch-0 blocks through every update of the run; its root must
       be the stepped own shard's. *)
    let slots =
      List.filter_map
        (fun i -> if i mod shards = 0 then Some (i, i / shards) else None)
        (List.init cells (fun i -> i))
    in
    let root, leaf_s, refresh_s =
      Replay.update_path ~slots
        ~initial:
          (List.map
             (fun (idq, _) ->
               (blocks0.(idq), (Gr.plan_slot info.Server.plan idq).Gr.pi))
             slots)
        ~updates:(List.map (fun u -> (u.u_cell, u.u_block)) updates)
    in
    check (Z.equal root (Gr.Server.e own.(0)))
      "serve: replayed shard-0 root differs from the stepped own shard";
    (* Set-up replayed layer by layer on the current database. *)
    let su =
      Replay.setup ~seed server
        ~own:
          (Gr.Server.create info.Server.plan
             (Array.init cells (fun i ->
                  Z.of_bytes_be (Server.cell_ciphertext server i))))
    in
    let upd f = median (Array.of_list (List.map f tp.updates)) in
    let counted f = float_of_int (delta f) in
    let per_instance f = float_of_int (f nt1 - f nt0) /. float_of_int cells in
    let ints l = Array.of_list (List.map float_of_int l) in
    ( [
        m "ot.query_s" "s" (median (per (fun r -> r.q_time)));
        m "ot.respond_s" "s" (median (Array.of_list ot_busy));
        m "ot.decode_s" "s" (median (per (fun r -> r.d_time)));
        m "ot.init_s" "s" su.Replay.ot_init_s;
        m "ot.server_exps_per_query" "count" (float_of_int ot_exps);
        m "numth.instance_s" "s" (median (Array.of_list instance_times));
        m "numth.prime_attempts" "count"
          (per_instance (fun s -> s.Counters.prime_attempts));
        m "numth.sieve_rejects" "count"
          (per_instance (fun s -> s.Counters.sieve_rejects));
        m "numth.mr_calls" "count"
          (per_instance (fun s -> s.Counters.mr_calls));
        m "numth.crt_build_s" "s" su.Replay.crt_build_s;
        m "numth.crt_update_leaf_s" "s" (median leaf_s);
        m "bignum.wexp_recode_s" "s" su.Replay.wexp_recode_s;
        m "bignum.wexp_refresh_s" "s" (median refresh_s);
        m "pir.respond_s" "s" (median (Array.of_list pr.busy));
        m "pir.server_mults" "count" (mean (ints pr.mults));
        m "pir.predicted_mults" "count" (mean (ints pr.predicted));
        m "core.decode_s" "s" (median decode_times);
        m "core.wire_bytes_up" "B" (mean (ints (List.map fst wire)));
        m "core.wire_bytes_down" "B" (mean (ints (List.map snd wire)));
        m "core.server_create_s" "s" (fastest snd);
        m "core.ot_respond_busy_s" "s" (median (Array.of_list ot_busy));
        m "core.pir_shard_respond_busy_s" "s" (median (Array.of_list pr.busy));
        m "cache.hit_frac" "ratio"
          (let h = cl1.Counters.cache_hits - cl0.Counters.cache_hits
           and mi = cl1.Counters.cache_misses - cl0.Counters.cache_misses in
           float_of_int h /. float_of_int (max 1 (h + mi)));
        m "net.submit_s" "s" (median tp.submits);
        m "net.ot_exchange_p50_s" "s"
          (median (per (exchange (fun r -> r.ot_tk))));
        m "net.pir_exchange_p50_s" "s"
          (median (per (exchange (fun r -> r.pir_tk))));
        m "net.ot_queue_wait_p50_s" "s" (median (Array.of_list ot_wait));
        m "net.pir_queue_wait_p50_s" "s" (median (Array.of_list pr.waits));
        m "net.queue_len_mean.0" "requests" (mean tp.queue_len.(0));
        m "net.queue_len_mean.1" "requests" (mean tp.queue_len.(1));
        m "net.shard_served.0" "count" (float_of_int (shard_served 0));
        m "net.shard_served.1" "count" (float_of_int (shard_served 1));
        m "net.sheds" "count" (float_of_int tp.sheds);
        m "net.served" "count" (float_of_int (2 * List.length traced_done));
        m "net.batch_mean" "requests"
          (counted (fun s -> s.Counters.batch_size_sum)
           /. counted (fun s -> s.Counters.batch_served));
        m "net.submit_update_s" "s" (upd (fun u -> u.u_ret -. u.u_call));
        m "net.fence_wait_p50_s" "s" (upd (fun u -> u.u_visible -. u.u_ret));
        m "net.update_blocks" "count"
          (counted (fun s -> s.Counters.update_blocks));
        m "net.epoch_bumps" "count" (counted (fun s -> s.Counters.epoch_bumps));
        m "gc.minor_words_per_round" "words"
          (tp.minor_words /. float_of_int (List.length traced_done));
        m "loadgen.lag_p90_s" "s" (quantile tp.lags 0.9);
        m "loadgen.busy_frac" "ratio" tp.busy_frac;
        m "loadgen.warmup_s" "s" warmup_s;
        m "trace.overhead_round_p50_s" "s" (median tlat -. median lat);
        m "tail.round_p90_s" "s" (quantile lat 0.9);
        m "load.sustained_rps" "1/s" sustained_rps;
        m "tail.update_visible_p90_s" "s" (quantile visible 0.9);
        m "trace.residual_s" "s"
          (median
             (per (fun r ->
                  r.done_at -. r.due -. r.lag -. r.q_time -. r.d_time
                  -. exchange (fun r -> r.ot_tk) r
                  -. exchange (fun r -> r.pir_tk) r)));
      ],
      notes, Array.length tp.rounds, failed tp )
