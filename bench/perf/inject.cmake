# Passed as CMAKE_PROJECT_INCLUDE when configuring the repository for the
# benchmark. It runs at the end of the top-level project() call and defers
# targets.cmake to the end of the top-level CMakeLists.txt, once every
# library target and compile definition exists.
cmake_language(EVAL CODE
  "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
                  CALL include [[${CMAKE_CURRENT_LIST_DIR}/targets.cmake]])")
