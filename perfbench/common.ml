(* Shared pieces of the benchmark: clocks, exact percentiles from raw
   samples, seeded input streams, the plaintext POI layout, and the
   result printer. *)

open Lbq_geo

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

(* Exact quantile of the raw samples: linear interpolation between order
   statistics (the "inclusive" definition: q = 0 is the minimum, q = 1
   the maximum).  No histogram buckets are involved. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "quantile: no samples";
  let s = Array.copy xs in
  Array.sort compare s;
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then invalid_arg "mean: no samples";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Samples strictly beyond quantile [q] — the tail-reporting rule needs
   at least 10 of them. *)
let beyond xs q =
  let v = quantile xs q in
  Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 xs

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                        *)
(* ------------------------------------------------------------------ *)

(* An independent random stream per (seed, purpose): every input the
   benchmark generates is a function of the workload seed alone. *)
let rng ~seed purpose =
  let d = Digest.string ("perfbench/" ^ seed ^ "/" ^ purpose) in
  Random.State.make
    (Array.init 4 (fun i -> Int32.to_int (String.get_int32_le d (4 * i))))

let exponential rng ~rate =
  -.log (1. -. Random.State.float rng 1.) /. rate

(* A uniform point strictly inside [rect] (5% inset on every side, so no
   point sits on a cell edge). *)
let inside rng rect =
  let mn = Coord.Rect.min rect in
  let u () = 0.05 +. (0.9 *. Random.State.float rng 1.) in
  Coord.make
    ~x:(Coord.x mn +. (Coord.Rect.width rect *. u ()))
    ~y:(Coord.y mn +. (Coord.Rect.height rect *. u ()))

let square side =
  Coord.Rect.make ~min:(Coord.make ~x:0. ~y:0.)
    ~max:(Coord.make ~x:side ~y:side)

(* The seeded POI layout over a rows x cols private grid: between 1 and
   [rmax] POIs per cell, each strictly inside its cell.  Returns the
   per-cell plaintext oracle (indexed by IDQ = row * cols + col) and the
   flat list the server is built from. *)
let layout rng ~area ~rows ~cols ~rmax =
  let q = Grid.lattice ~area ~rows ~cols in
  let cats = Synth.default_categories in
  let next = ref 0 in
  let cells =
    Array.init (rows * cols) (fun idq ->
        let cell = { Grid.row = idq / cols; col = idq mod cols } in
        let count = 1 + Random.State.int rng rmax in
        List.init count (fun _ ->
            let id = !next in
            incr next;
            let category = cats.(Random.State.int rng (Array.length cats)) in
            Poi.make ~id ~position:(inside rng (Grid.cell_rect q cell))
              ~category ~name:(Printf.sprintf "%s-%05d" category id)))
  in
  (cells, List.concat (Array.to_list cells))

let real pois = List.filter (fun p -> not (Poi.is_dummy p)) pois

let same_pois a b =
  let sort l = List.sort (fun x y -> compare (Poi.id x) (Poi.id y)) l in
  List.equal Poi.equal (sort (real a)) (sort (real b))

(* Public cells whose associated private cell is [idq], for every idq:
   a user standing anywhere in one of them fetches cell idq. *)
let public_cells_by_idq (info : Lbq_core.Server.public_info) partition =
  let open Lbq_core in
  let grid = info.Server.public_grid in
  let by = Array.make (Grid.cell_count partition) [] in
  for row = 0 to Grid.lattice_rows grid - 1 do
    for col = 0 to Grid.lattice_cols grid - 1 do
      let c = { Grid.row; col } in
      let idq = Grid.associate grid partition c in
      by.(idq) <- c :: by.(idq)
    done
  done;
  Array.map (fun l -> Array.of_list (List.rev l)) by

(* A seeded position whose public cell is associated with [idq]. *)
let position_for rng (info : Lbq_core.Server.public_info) by_idq idq =
  let cells = by_idq.(idq) in
  if Array.length cells = 0 then
    failwith "no public cell maps to a private cell";
  let c = cells.(Random.State.int rng (Array.length cells)) in
  inside rng (Grid.cell_rect info.Lbq_core.Server.public_grid c)

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

exception Check_failed of string

(* A failed oracle or exact-count check: the run is wrong. *)
let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * string) list;
      (* human-readable details printed before the result line: sample
         counts, exact-count witnesses, generator validity *)
}

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Notes first, then the one-line JSON result (the last line of stdout). *)
let print (r : result) =
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) r.notes;
  List.iter
    (fun mt ->
      if not (Float.is_finite mt.value) then
        failwith (Printf.sprintf "metric %s is not finite" mt.name))
    r.metrics;
  let metrics =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (json_string mt.name) (json_float mt.value) (json_string mt.unit_))
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed metrics
