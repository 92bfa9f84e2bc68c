#!/bin/sh
# Run the nine gated benches with the smoke parameters that
# bench/baselines/ was generated with. Run it from the build directory:
#
#     cd build && sh ../tools/run_smoke_benches.sh
#
# Each bench writes its BENCH_*.json into the current directory. The
# simulator is deterministic, so these parameters reproduce the committed
# baselines byte for byte; change them only together with the baselines.
set -eu

DSIM_GENS=3 DSIM_BALLAST_MB=4 ./bench_incremental
DSIM_CDC_IMG_KB=256 DSIM_CDC_AVG_KB=4 DSIM_CDC_PROCS=2 \
  DSIM_CDC_LIB_MB=2 DSIM_CDC_PRIV_MB=1 ./bench_cdc
DSIM_SVC_MAX_RANKS=8 DSIM_SVC_LIB_MB=2 DSIM_SVC_PRIV_MB=1 ./bench_service
DSIM_FO_RANKS=4 DSIM_FO_LIB_MB=2 DSIM_FO_PRIV_MB=1 ./bench_failover
DSIM_ASYNC_GENS=3 ./bench_async
DSIM_ER_RANKS=4 DSIM_ER_LIB_MB=2 DSIM_ER_PRIV_MB=1 ./bench_erasure
DSIM_TEN_RANKS=4 DSIM_TEN_LIB_MB=2 DSIM_TEN_PRIV_MB=32 \
  DSIM_TEN_VIC_KB=768 ./bench_tenants
./bench_obs
DSIM_HEALTH_RANKS=3 DSIM_HEALTH_LIB_MB=1 DSIM_HEALTH_PRIV_MB=1 \
  DSIM_HEALTH_ROUNDS=3 ./bench_health
