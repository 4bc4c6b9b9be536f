# Build file of the campaign benchmark. It is injected into the
# repository's own CMake project, so the libraries the harness links are
# compiled exactly as the repository defines them. run.py configures with
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=RelWithDebInfo \
#     -DIMPRESS_BUILD_TESTS=OFF -DIMPRESS_BUILD_BENCH=OFF \
#     -DIMPRESS_BUILD_EXAMPLES=OFF -DIMPRESS_BUILD_TOOLS=OFF \
#     -DCMAKE_PROJECT_impress_INCLUDE=$PWD/perfbench/perfbench.cmake
# and builds with `cmake --build .bench_build --target campaign_bench`.
#
# CMake includes this file right after project(impress); the target is
# defined in a deferred call that runs once the top-level CMakeLists has
# set the language standard and defined every library target.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
  add_executable(campaign_bench "${PERFBENCH_DIR}/campaign_bench.cpp")
  target_link_libraries(campaign_bench PRIVATE impress::core impress_warnings)
  target_compile_definitions(campaign_bench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
endfunction()

cmake_language(DEFER CALL perfbench_add_targets)
