# Included by CMake right after the repository's project() call
# (CMAKE_PROJECT_INCLUDE); adds the benchmark directory to that project.
# Targets it links to are defined later in the same project, which CMake
# resolves at generate time.
if(NOT TARGET irf_perfbench)
  add_subdirectory(${CMAKE_CURRENT_LIST_DIR} perfbench)
endif()
