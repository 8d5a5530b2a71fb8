(* The repository benchmark: one workload per run, timed end to end
   (--trace 0) or split by layer (--trace 1).  Usually driven through
   run.py, which builds this program, passes the frozen numbers from
   plan.json, and validates the result line.

     main.exe --workload paper-round|serve-churn --seed S
       --seconds N --trace 0|1 [serve-churn settings]

   Exit status: 0 with a result line; 1 when an oracle or exact-count
   check fails (the result line says correct: false); 2 when the run is
   invalid (the load generator ran late) and nothing is reported. *)

open Common

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 20. in
  let trace = ref 0 in
  let light = ref 0. and ladder = ref "" and limit = ref 0. in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_string seed, "S input seed");
      ("--seconds", Arg.Set_float seconds, "N measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--light-rps", Arg.Set_float light, "R fixed light rate");
      ("--ladder", Arg.Set_string ladder, "R,R,.. offered-rate ladder");
      ("--limit-s", Arg.Set_float limit, "S p90 latency limit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed S --seconds N --trace 0|1";
  if !seed = "" then (prerr_endline "--seed is required"; exit 2);
  let trace = !trace = 1 in
  let serve () =
    if !light <= 0. || !ladder = "" || !limit <= 0. then begin
      prerr_endline "serve-churn needs the settings of plan.json";
      exit 2
    end;
    let cfg =
      {
        Serve.light_rps = !light;
        ladder =
          Array.of_list
            (List.map float_of_string (String.split_on_char ',' !ladder));
        limit_s = !limit;
      }
    in
    Serve.run ~cfg ~seed:!seed ~seconds:!seconds ~trace
  in
  let go =
    match !workload with
    | "paper-round" ->
      fun () -> Paper_round.run ~seed:!seed ~seconds:!seconds ~trace
    | "serve-churn" -> serve
    | w -> prerr_endline ("unknown workload " ^ w); exit 2
  in
  match go () with
  | metrics, notes, attempted, failed ->
    let metrics =
      if trace then metrics
      else metrics @ [ m "peak_heap_mb" "MB" (peak_heap_mb ()) ]
    in
    print { correct = true; attempted; failed; metrics; notes }
  | exception (Check_failed msg | Lbq_core.Client.Protocol_error msg) ->
    Printf.printf "# check failed: %s\n" msg;
    print
      { correct = false; attempted = 1; failed = 1; metrics = []; notes = [] };
    exit 1
  | exception Serve.Invalid_run msg ->
    prerr_endline ("invalid run, not reported: " ^ msg);
    exit 2
