(* Workload paper-round: the paper's own setting (1024/160-bit OT group,
   25x25 public grid, 128-bit PIR cofactors, rmax 2) as one user's cold,
   sequential full rounds — a fresh phi-hiding instance built inline
   every round, no pool, no reuse (Table IV).

   The private grid is 4x4 instead of the paper's 15x15: paper-preset
   [Server.create] spends about 70 s in the CRT product tree on a
   2-core host, more than a whole run may take.  Every per-round cost
   except the stage-2 respond (which scales with |e|) is the paper's.

   The user moves among the four cells at the grid's centre, visiting
   each once per sweep, from a seeded position per cell, in a new seeded
   order per sweep.  The user's coins for a cell are fixed across seeds
   and sweeps (common random numbers): the prime search, whose length is
   random, is then the same work on every seed, so the run-to-run spread
   measures the program rather than the luck of the search.  Every sweep repeats the same cold rounds, and a
   cell's round time is the fastest of its repeats: the host's speed
   swings by up to 1.75x for seconds to minutes at a time, and the
   minimum of identical work spread over the run filters that out. *)

open Lbq_geo
open Lbq_core
open Common
module Counters = Lbq_metrics.Counters
module Gr = Lbq_pir.Gr
module Z = Lbq_bignum.Z

let private_side = 4
let cell_m = 1000.
let setup_every = 4  (* rounds between two timed set-ups *)
let update_probe = 320

let params ~seed =
  let base = Params.paper ~seed:("perfbench-paper/" ^ seed) () in
  { base with Params.private_rows = private_side; private_cols = private_side }

(* One round's timings, split by the layer call that spent them. *)
type split = {
  ot_query : float;
  ot_respond : float;
  ot_decode : float;
  instance : float;
  pir_respond : float;
  decode : float;
}

type round = {
  wall : float;
  split : split option;
  up : int;
  down : int;
  server_mults : int;
  predicted_mults : int;
  server_exps : int;
  user_exps : int;
  attempts : int;
  sieve_rejects : int;
  mr_calls : int;
  minor_words : float;
  transcript : (Protocol.direction * int) list;
}

(* [Protocol.run_round]'s calls made one by one, each timed; the same
   wire encodings, so the transcript is the same. *)
let traced_round client server ~position =
  let group = (Server.params server).Params.group in
  let tr = ref [] in
  let send dir s = tr := (dir, String.length s) :: !tr; s in
  let cell = Client.locate client position in
  let (st1, q), ot_query = time (fun () -> Client.stage1_query client cell) in
  let qw = send Protocol.User_to_server (Wire.ot_query_encode group q) in
  let q' = Wire.ot_query_decode group qw in
  let resp, ot_respond = time (fun () -> Server.ot_respond server q') in
  let rw = send Protocol.Server_to_user (Wire.ot_response_encode group resp) in
  let resp' = Wire.ot_response_decode group rw in
  let cred, ot_decode =
    time (fun () -> Client.stage1_decode client st1 resp')
  in
  let (st2, pq), instance = time (fun () -> Client.stage2_query client cred) in
  let pw = send Protocol.User_to_server (Wire.pir_query_encode pq) in
  let n, g = Wire.pir_query_decode pw in
  let ge, pir_respond = time (fun () -> Server.pir_respond server ~n ~g) in
  let gw = send Protocol.Server_to_user (Wire.pir_response_encode ~n ge) in
  let ge' = Wire.pir_response_decode gw in
  let pois, decode = time (fun () -> Client.stage2_decode client st2 ge') in
  ( pois, cred, List.rev !tr,
    { ot_query; ot_respond; ot_decode; instance; pir_respond; decode } )

let run ~seed ~seconds ~trace =
  let params = params ~seed in
  let area = square (cell_m *. float_of_int private_side) in
  let oracle, pois =
    layout (rng ~seed "paper-layout") ~area ~rows:private_side
      ~cols:private_side ~rmax:params.Params.rmax
  in
  let cells = Array.length oracle in
  (* Set-up: Server.create on the same inputs, once before the rounds
     and again after every [setup_every] rounds; setup_s is the fastest,
     the host's speed swings lasting seconds. *)
  let server_metrics = Counters.create () in
  let create () = Server.create ~metrics:server_metrics params ~area pois in
  let creates = ref [] in
  let timed_create () =
    let server, dt = time create in
    Gc.full_major ();
    creates := dt :: !creates;
    server
  in
  let server = timed_create () in
  let info = Server.public_info server in
  let partition = Server.partition server in
  for idq = 0 to cells - 1 do
    check
      (same_pois oracle.(idq) (Server.trusted_cell_pois server idq))
      "paper-round: cell %d partition differs from the layout" idq
  done;
  (* The stage-2 database on the benchmark's own Gr.Server: its
     predicted multiplication count is the exact-count oracle. *)
  let records =
    Array.init cells (fun i -> Z.of_bytes_be (Server.cell_ciphertext server i))
  in
  let plan = info.Server.plan in
  let own = Gr.Server.create plan records in
  let predicted = ref (Gr.Server.predicted_mults own) in
  let by_idq = public_cells_by_idq info partition in
  let ot_exps = 3 * (params.Params.public_rows + params.Params.public_cols) in
  (* The rounds: the user moves among the 2x2 block of cells at the
     grid's centre, visiting each once per sweep, one sweep per 5 s of
     --seconds.  Few cells and many sweeps: a cell's fastest round then
     comes from repeats spread over the whole run. *)
  let visited =
    let c = private_side / 2 in
    [| ((c - 1) * private_side) + c - 1; ((c - 1) * private_side) + c;
       (c * private_side) + c - 1; (c * private_side) + c |]
  in
  let sweeps = max 2 (int_of_float (Float.round (seconds /. 5.))) in
  let order_rng = rng ~seed "paper-order" in
  let pos_rng = rng ~seed "paper-positions" in
  let positions =
    Array.map (fun idq -> (idq, position_for pos_rng info by_idq idq)) visited
  in
  let plan_rounds =
    List.concat
      (List.init sweeps (fun s ->
           let perm = Array.copy positions in
           for i = Array.length perm - 1 downto 1 do
             let j = Random.State.int order_rng (i + 1) in
             let t = perm.(i) in
             perm.(i) <- perm.(j);
             perm.(j) <- t
           done;
           Array.to_list (Array.map (fun (idq, p) -> (idq, s, p)) perm)))
  in
  let coins idq = Printf.sprintf "perfbench-paper-user/c%d" idq in
  (* The update probe, interleaved with the rounds (untimed for them):
     seeded single-cell replacements through Server.update_cell,
     visible on return.  The plaintext oracle and the own Gr.Server
     follow every update. *)
  let current = Array.copy oracle in
  let per_round =
    (update_probe + List.length plan_rounds - 1) / List.length plan_rounds
  in
  let churn =
    ref
      (Synth.churn ~seed:("perfbench-paper-churn/" ^ seed) ~partition
         ~steps:(per_round * (List.length plan_rounds + 3)) ())
  in
  let visible = ref [] in
  let updates () =
    for _ = 1 to per_round do
      match !churn with
      | [] -> assert false
      | (u : Poi_file.update) :: rest ->
        churn := rest;
        let cell = u.Poi_file.cell in
        let (), dt =
          time (fun () -> Server.update_cell server ~idq:cell u.Poi_file.pois)
        in
        visible := (cell, dt) :: !visible;
        current.(cell) <- u.Poi_file.pois;
        check
          (same_pois current.(cell) (Server.trusted_cell_pois server cell))
          "paper-round: cell %d after an update differs from the churn oracle"
          cell;
        Gr.Server.update_block own ~idx:cell
          ~block:(Z.of_bytes_be (Server.cell_ciphertext server cell));
        predicted := Gr.Server.predicted_mults own
    done
  in
  let client_metrics = Counters.create () in
  let attempted = ref 0 and failed = ref 0 in
  let one_round ~traced (idq, _, position) =
    let client = Client.create ~metrics:client_metrics ~seed:(coins idq) info in
    let sv0 = Counters.snapshot server_metrics in
    let cl0 = Counters.snapshot client_metrics in
    let gc0 = Gc.minor_words () in
    let t0 = now () in
    let pois, cred, transcript, split =
      if traced then
        let pois, cred, tr, split = traced_round client server ~position in
        (pois, cred, tr, Some split)
      else
        let r = Protocol.run_round client server ~position in
        ( r.Protocol.pois, r.Protocol.credential,
          List.map
            (fun mg -> (mg.Protocol.direction, mg.Protocol.bytes))
            r.Protocol.transcript,
          None )
    in
    let wall = now () -. t0 in
    let minor_words = Gc.minor_words () -. gc0 in
    let sv1 = Counters.snapshot server_metrics in
    let cl1 = Counters.snapshot client_metrics in
    let bytes dir =
      List.fold_left (fun a (d, b) -> if d = dir then a + b else a) 0 transcript
    in
    let r =
      {
        wall; split; transcript; minor_words;
        up = bytes Protocol.User_to_server;
        down = bytes Protocol.Server_to_user;
        server_mults = sv1.Counters.server_mult - sv0.Counters.server_mult;
        predicted_mults = !predicted;
        server_exps = sv1.Counters.server_exp - sv0.Counters.server_exp;
        user_exps = cl1.Counters.user_exp - cl0.Counters.user_exp;
        attempts = cl1.Counters.prime_attempts - cl0.Counters.prime_attempts;
        sieve_rejects = cl1.Counters.sieve_rejects - cl0.Counters.sieve_rejects;
        mr_calls = cl1.Counters.mr_calls - cl0.Counters.mr_calls;
      }
    in
    (* The oracle gate: credential, POIs, exact counts. *)
    check (Client.credential_idq cred = idq)
      "paper-round: OT credential names cell %d, expected %d"
      (Client.credential_idq cred) idq;
    check
      (String.equal (Client.credential_key cred)
         (Server.trusted_cell_key server idq))
      "paper-round: OT credential key for cell %d is wrong" idq;
    check (same_pois pois current.(idq))
      "paper-round: cell %d POIs differ from the plaintext oracle" idq;
    check (same_pois pois (Server.trusted_cell_pois server idq))
      "paper-round: cell %d POIs differ from Server.trusted_cell_pois" idq;
    check (r.server_mults = r.predicted_mults)
      "paper-round: respond took %d multiplications, predicted %d"
      r.server_mults r.predicted_mults;
    check (r.server_exps = ot_exps)
      "paper-round: OT respond took %d exponentiations, expected %d"
      r.server_exps ot_exps;
    check (r.user_exps = 6)
      "paper-round: user took %d OT exponentiations, expected 6" r.user_exps;
    r
  in
  let rounds =
    List.map
      (fun item ->
        incr attempted;
        let r =
          try one_round ~traced:trace item
          with Client.Protocol_error msg ->
            incr failed;
            raise (Check_failed ("paper-round: protocol error: " ^ msg))
        in
        updates ();
        if !attempted mod setup_every = 0 then ignore (timed_create ());
        r)
      plan_rounds
  in
  let creates = Array.of_list !creates in
  let setup_s = Array.fold_left Float.min infinity creates in
  (* Identity: the traced rounds must carry Protocol.run_round's exact
     transcript.  Re-run the last three items untraced with the same
     coins (warm, like the traced ones); the pairs also give the tracing
     overhead. *)
  let overhead =
    if not trace then []
    else
      let k = List.length rounds - 3 in
      let last l = List.filteri (fun i _ -> i >= k) l in
      List.map2
        (fun item tr ->
          let un = one_round ~traced:false item in
          check (un.transcript = tr.transcript)
            "paper-round: traced round transcript differs from \
             Protocol.run_round";
          tr.wall -. un.wall)
        (last plan_rounds) (last rounds)
  in
  (* A cell's round time: the fastest of its repeats. *)
  let best = Array.make cells infinity in
  List.iter2
    (fun (idq, _, _) r -> best.(idq) <- Float.min best.(idq) r.wall)
    plan_rounds rounds;
  let walls = Array.map (fun idq -> best.(idq)) visited in
  let n = Array.length walls in
  let round_bytes =
    mean
      (Array.of_list
         (List.map (fun r -> float_of_int (r.up + r.down)) rounds))
  in
  (* A cell's update time: the fastest of its updates, which all do the
     same work on the cell's leaf and block. *)
  let fastest = Array.make cells infinity in
  List.iter
    (fun (cell, dt) -> fastest.(cell) <- Float.min fastest.(cell) dt)
    !visible;
  let updated =
    Array.of_list (List.filter Float.is_finite (Array.to_list fastest))
  in
  let visible = Array.of_list (List.map snd !visible) in
  let sum = Array.fold_left ( +. ) 0. in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "ok_frac" "ratio"
        (float_of_int (!attempted - !failed) /. float_of_int !attempted);
      m "round_p50_s" "s" (median walls);
      m "round_bytes" "B" round_bytes;
      m "update_visible_p50_s" "s" (median updated);
    ]
  in
  let notes =
    [
      ( "rounds",
        Printf.sprintf
          "%d sweeps of cells %s; a cell's time is the fastest of its %d \
           repeats" sweeps
          (String.concat "," (Array.to_list (Array.map string_of_int visited)))
          sweeps );
      ( "setup_s",
        Printf.sprintf "fastest of %d Server.create, median %.4f s"
          (Array.length creates) (median creates) );
      ( "update_visible_p50_s",
        Printf.sprintf
          "median over %d cells of each cell's fastest of %d updates"
          (Array.length updated) (Array.length visible) );
      ( "tail.round_p90_s",
        Printf.sprintf
          "not reported: %d samples lie beyond it, fewer than 10"
          (beyond walls 0.9) );
      ( "tail.update_visible_p90_s",
        Printf.sprintf "%d samples, %d beyond p90" (Array.length visible)
          (beyond visible 0.9) );
      ("ot.server_exps_per_query", string_of_int ot_exps);
    ]
  in
  if not trace then (e2e, notes, !attempted, !failed)
  else begin
    let splits = List.filter_map (fun r -> r.split) rounds in
    let col f = Array.of_list (List.map f splits) in
    let residual =
      Array.of_list
        (List.map
           (fun r ->
             match r.split with
             | None -> 0.
             | Some s ->
               r.wall
               -. (s.ot_query +. s.ot_respond +. s.ot_decode +. s.instance
                   +. s.pir_respond +. s.decode))
           rounds)
    in
    let avg f =
      mean (Array.of_list (List.map (fun r -> float_of_int (f r)) rounds))
    in
    (* Set-up replayed layer by layer on the current database; the own
       Gr.Server, updated in step with the server, must hold its root. *)
    let su = Replay.setup ~seed server ~own in
    let layers =
      [
        m "ot.query_s" "s" (median (col (fun s -> s.ot_query)));
        m "ot.respond_s" "s" (median (col (fun s -> s.ot_respond)));
        m "ot.decode_s" "s" (median (col (fun s -> s.ot_decode)));
        m "ot.init_s" "s" su.Replay.ot_init_s;
        m "ot.server_exps_per_query" "count" (avg (fun r -> r.server_exps));
        m "numth.instance_s" "s" (median (col (fun s -> s.instance)));
        m "numth.prime_attempts" "count" (avg (fun r -> r.attempts));
        m "numth.sieve_rejects" "count" (avg (fun r -> r.sieve_rejects));
        m "numth.mr_calls" "count" (avg (fun r -> r.mr_calls));
        m "numth.crt_build_s" "s" su.Replay.crt_build_s;
        m "bignum.wexp_recode_s" "s" su.Replay.wexp_recode_s;
        m "pir.respond_s" "s" (median (col (fun s -> s.pir_respond)));
        m "pir.server_mults" "count" (avg (fun r -> r.server_mults));
        m "pir.predicted_mults" "count" (avg (fun r -> r.predicted_mults));
        m "core.decode_s" "s" (median (col (fun s -> s.decode)));
        m "core.wire_bytes_up" "B" (avg (fun r -> r.up));
        m "core.wire_bytes_down" "B" (avg (fun r -> r.down));
        m "core.server_create_s" "s" setup_s;
        m "gc.minor_words_per_round" "words"
          (mean (Array.of_list (List.map (fun r -> r.minor_words) rounds)));
        m "trace.overhead_round_p50_s" "s" (median (Array.of_list overhead));
        m "trace.residual_s" "s" (median residual);
        m "load.sustained_rps" "1/s" (float_of_int n /. sum walls);
        m "tail.update_visible_p90_s" "s" (quantile visible 0.9);
      ]
    in
    let notes =
      notes
      @ [
          ( "trace.residual_s",
            Printf.sprintf
              "median round %.4f s minus the six layer calls = %.4f s \
               unattributed (wire codecs, locate, bookkeeping)"
              (median (Array.of_list (List.map (fun r -> r.wall) rounds)))
              (median residual) );
          ( "trace.overhead_round_p50_s",
            Printf.sprintf
              "median of %d traced-minus-untraced pairs on identical work"
              (List.length overhead) );
        ]
    in
    (layers, notes, !attempted, !failed)
  end
